#include "src/fs/ext2fs.h"

#include <gtest/gtest.h>

#include "src/core/peaks.h"
#include "src/fs/profiled_vfs.h"

namespace osfs {
namespace {

using osim::Cycles;
using osim::Kernel;
using osim::KernelConfig;
using osim::SimDisk;
using osim::Task;
using osprofilers::SimProfiler;

KernelConfig QuietConfig() {
  KernelConfig cfg;
  cfg.num_cpus = 1;
  cfg.context_switch_cost = 0;
  cfg.timer_tick_period = 0;
  return cfg;
}

struct Fixture {
  explicit Fixture(Ext2Config fs_config = {},
                   KernelConfig kcfg = QuietConfig())
      : kernel(kcfg), disk(&kernel), fs(&kernel, &disk, fs_config) {}
  Kernel kernel;
  SimDisk disk;
  Ext2SimFs fs;
};

TEST(Ext2Image, AddDirAndFileBuildNamespace) {
  Fixture fx;
  fx.fs.AddDir("/src");
  fx.fs.AddFile("/src/a.c", 10'000);
  EXPECT_TRUE(fx.fs.Exists("/src"));
  EXPECT_TRUE(fx.fs.Exists("/src/a.c"));
  EXPECT_FALSE(fx.fs.Exists("/src/b.c"));
  EXPECT_EQ(fx.fs.FileSize("/src/a.c"), 10'000u);
  EXPECT_EQ(fx.fs.FileSize("/src"), kDirentBytes);
}

TEST(Ext2Image, RejectsDuplicatesAndOrphans) {
  Fixture fx;
  fx.fs.AddDir("/src");
  EXPECT_THROW(fx.fs.AddDir("/src"), std::invalid_argument);
  EXPECT_THROW(fx.fs.AddFile("/nodir/a.c", 1), std::invalid_argument);
}

Task<void> ReadWholeFile(osfs::Vfs* vfs, std::string path,
                         std::int64_t* total) {
  const int fd = co_await vfs->Open(path, false);
  EXPECT_GE(fd, 0);
  std::int64_t got = 0;
  do {
    got = co_await vfs->Read(fd, 4096);
    *total += got;
  } while (got > 0);
  co_await vfs->Close(fd);
}

TEST(Ext2Read, ReturnsExactFileSize) {
  Fixture fx;
  fx.fs.AddDir("/d");
  fx.fs.AddFile("/d/f", 10'000);
  std::int64_t total = 0;
  fx.kernel.Spawn("r", ReadWholeFile(&fx.fs, "/d/f", &total));
  fx.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(total, 10'000);
}

TEST(Ext2Read, SecondReadIsServedFromPageCache) {
  Fixture fx;
  fx.fs.AddFile("/f", 8'192);
  std::int64_t total = 0;
  fx.kernel.Spawn("r1", ReadWholeFile(&fx.fs, "/f", &total));
  fx.kernel.RunUntilThreadsFinish();
  const std::uint64_t disk_reads = fx.disk.requests_completed();
  EXPECT_GT(disk_reads, 0u);
  fx.kernel.Spawn("r2", ReadWholeFile(&fx.fs, "/f", &total));
  fx.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(fx.disk.requests_completed(), disk_reads);  // No new I/O.
}

TEST(Ext2Read, ZeroByteReadTouchesNoDisk) {
  Fixture fx;
  fx.fs.AddFile("/f", 4096);
  auto body = [](osfs::Vfs* vfs) -> Task<void> {
    const int fd = co_await vfs->Open("/f", false);
    const std::int64_t got = co_await vfs->Read(fd, 0);
    EXPECT_EQ(got, 0);
    co_await vfs->Close(fd);
  };
  fx.kernel.Spawn("r", body(&fx.fs));
  fx.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(fx.disk.requests_completed(), 0u);
}

Task<void> ReaddirAll(osfs::Vfs* vfs, std::string path,
                      std::vector<std::string>* names, int* calls) {
  const int fd = co_await vfs->Open(path, false);
  while (true) {
    ++*calls;
    const DirentBatch batch = co_await vfs->Readdir(fd);
    if (batch.names.empty()) {
      break;
    }
    names->insert(names->end(), batch.names.begin(), batch.names.end());
  }
  co_await vfs->Close(fd);
}

TEST(Ext2Readdir, EnumeratesAllEntriesThenEof) {
  Fixture fx;
  fx.fs.AddDir("/d");
  for (int i = 0; i < 100; ++i) {
    fx.fs.AddFile("/d/f" + std::to_string(i), 100);
  }
  std::vector<std::string> names;
  int calls = 0;
  fx.kernel.Spawn("r", ReaddirAll(&fx.fs, "/d", &names, &calls));
  fx.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(names.size(), 100u);
  // 100 entries at 16 per getdents call -> 7 data calls + 1 past-EOF call.
  EXPECT_EQ(calls, 8);
}

TEST(Ext2Readdir, PastEofIsCheapCachedIsMidDiskIsSlow) {
  // The Figure 7 structure, asserted end to end on one directory.
  Fixture fx;
  fx.fs.AddDir("/d");
  for (int i = 0; i < 60; ++i) {
    fx.fs.AddFile("/d/f" + std::to_string(i), 100);
  }
  SimProfiler prof(&fx.kernel);
  fx.fs.SetProfiler(&prof);
  std::vector<std::string> names;
  int calls = 0;
  // Two passes: first cold (disk), then warm (page cache) + two EOF probes.
  fx.kernel.Spawn("r", ReaddirAll(&fx.fs, "/d", &names, &calls));
  fx.kernel.RunUntilThreadsFinish();
  fx.kernel.Spawn("r2", ReaddirAll(&fx.fs, "/d", &names, &calls));
  fx.kernel.RunUntilThreadsFinish();

  const osprof::Profile* readdir = prof.profiles().Find("readdir");
  ASSERT_NE(readdir, nullptr);
  // 60 entries at 16/call: per pass 4 data calls + 1 EOF probe; only the
  // very first call pays disk I/O.
  EXPECT_EQ(readdir->total_operations(), 10u);
  const osprof::Histogram& h = readdir->histogram();
  // EOF probes: bucket 6-7.  Cached calls: ~bucket 9-14.  Cold call: >= 16.
  std::uint64_t eof_zone = 0;
  std::uint64_t warm_zone = 0;
  std::uint64_t disk_zone = 0;
  for (int b = 5; b <= 8; ++b) {
    eof_zone += h.bucket(b);
  }
  for (int b = 9; b <= 14; ++b) {
    warm_zone += h.bucket(b);
  }
  for (int b = 16; b <= 25; ++b) {
    disk_zone += h.bucket(b);
  }
  EXPECT_EQ(eof_zone, 2u);
  EXPECT_EQ(warm_zone, 7u);
  EXPECT_EQ(disk_zone, 1u);

  // And the paper's cross-check: readpage ops == disk-zone readdir ops.
  const osprof::Profile* readpage = prof.profiles().Find("readpage");
  ASSERT_NE(readpage, nullptr);
  EXPECT_EQ(readpage->total_operations(), disk_zone);
}

TEST(Ext2Llseek, UnpatchedTakesSemaphorePatchedDoesNot) {
  for (const bool unpatched : {true, false}) {
    Ext2Config cfg;
    cfg.llseek_takes_i_sem = unpatched;
    cfg.cpu_noise_sigma = 0.0;  // Exact cost assertions.
    Fixture fx(cfg);
    fx.fs.AddFile("/f", 1 << 20);
    SimProfiler prof(&fx.kernel);
    fx.fs.SetProfiler(&prof);
    auto body = [](osfs::Vfs* vfs) -> Task<void> {
      const int fd = co_await vfs->Open("/f", false);
      for (int i = 0; i < 100; ++i) {
        (void)co_await vfs->Llseek(fd, static_cast<std::uint64_t>(i) * 512);
      }
      co_await vfs->Close(fd);
    };
    fx.kernel.Spawn("s", body(&fx.fs));
    fx.kernel.RunUntilThreadsFinish();
    const osprof::Profile* llseek = prof.profiles().Find("llseek");
    ASSERT_NE(llseek, nullptr);
    const double mean = llseek->histogram().MeanLatency();
    if (unpatched) {
      EXPECT_NEAR(mean, 400.0, 40.0);  // The paper's 400 cycles.
    } else {
      EXPECT_NEAR(mean, 120.0, 15.0);  // The paper's 120 cycles.
    }
  }
}

TEST(Ext2DirectIo, LlseekContendsWithDirectRead) {
  // §6.1: with two processes random-reading the same file with O_DIRECT,
  // llseek collides with the i_sem held across the other's disk I/O.
  Ext2Config cfg;
  Fixture fx(cfg, [] {
    KernelConfig k = QuietConfig();
    k.num_cpus = 2;
    return k;
  }());
  fx.fs.AddFile("/data", 16u << 20);
  SimProfiler prof(&fx.kernel);
  fx.fs.SetProfiler(&prof);

  auto proc = [](Kernel* k, osfs::Vfs* vfs, std::uint64_t seed) -> Task<void> {
    osim::Rng rng(seed);
    const int fd = co_await vfs->Open("/data", /*direct_io=*/true);
    for (int i = 0; i < 150; ++i) {
      (void)co_await vfs->Llseek(fd, rng.Below(32'000) * 512);
      (void)co_await vfs->Read(fd, 512);
      co_await k->CpuUser(500);
    }
    co_await vfs->Close(fd);
  };
  fx.kernel.Spawn("p1", proc(&fx.kernel, &fx.fs, 11));
  fx.kernel.Spawn("p2", proc(&fx.kernel, &fx.fs, 22));
  fx.kernel.RunUntilThreadsFinish();

  const osprof::Profile* llseek = prof.profiles().Find("llseek");
  ASSERT_NE(llseek, nullptr);
  // Two modes: the CPU-only path (bucket ~8-9) and the contended path in
  // the disk-latency range (>= bucket 17).
  const osprof::Histogram& h = llseek->histogram();
  std::uint64_t fast = 0;
  std::uint64_t slow = 0;
  for (int b = 0; b <= 12; ++b) {
    fast += h.bucket(b);
  }
  for (int b = 17; b < h.num_buckets(); ++b) {
    slow += h.bucket(b);
  }
  EXPECT_GT(fast, 0u);
  EXPECT_GT(slow, 0u);
  // Single process: no contended mode.
  SimProfiler prof1(&fx.kernel);
  fx.fs.SetProfiler(&prof1);
  fx.kernel.Spawn("solo", proc(&fx.kernel, &fx.fs, 33));
  fx.kernel.RunUntilThreadsFinish();
  const osprof::Histogram& h1 = prof1.profiles().Find("llseek")->histogram();
  std::uint64_t solo_slow = 0;
  for (int b = 17; b < h1.num_buckets(); ++b) {
    solo_slow += h1.bucket(b);
  }
  EXPECT_EQ(solo_slow, 0u);
}

Task<void> WriteFileBody(osfs::Vfs* vfs, std::string path, std::uint64_t bytes,
                         bool fsync) {
  const int fd = co_await vfs->Create(path);
  EXPECT_GE(fd, 0);
  (void)co_await vfs->Write(fd, bytes);
  if (fsync) {
    co_await vfs->Fsync(fd);
  }
  co_await vfs->Close(fd);
}

TEST(Ext2Write, BufferedWriteDefersDiskIo) {
  Fixture fx;
  fx.fs.AddDir("/w");
  fx.kernel.Spawn("w", WriteFileBody(&fx.fs, "/w/f", 8192, /*fsync=*/false));
  fx.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(fx.disk.requests_completed(), 0u);  // All in the page cache.
  EXPECT_EQ(fx.fs.FileSize("/w/f"), 8192u);
}

TEST(Ext2Write, FsyncForcesWriteback) {
  Fixture fx;
  fx.fs.AddDir("/w");
  fx.kernel.Spawn("w", WriteFileBody(&fx.fs, "/w/f", 8192, /*fsync=*/true));
  fx.kernel.RunUntilThreadsFinish();
  EXPECT_GE(fx.disk.requests_completed(), 2u);  // Two pages written.
}

TEST(Ext2Write, ExtendsFileAcrossExtentGrowth) {
  Fixture fx;
  fx.fs.AddDir("/w");
  auto body = [](osfs::Vfs* vfs) -> Task<void> {
    const int fd = co_await vfs->Create("/w/big");
    for (int i = 0; i < 100; ++i) {
      (void)co_await vfs->Write(fd, 4096);
    }
    co_await vfs->Close(fd);
  };
  fx.kernel.Spawn("w", body(&fx.fs));
  fx.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(fx.fs.FileSize("/w/big"), 409'600u);
}

TEST(Ext2Namespace, CreateUnlinkLifecycle) {
  Fixture fx;
  fx.fs.AddDir("/d");
  auto body = [](osfs::Vfs* vfs) -> Task<void> {
    const int fd = co_await vfs->Create("/d/new");
    EXPECT_GE(fd, 0);
    co_await vfs->Close(fd);
    const FileAttr attr = co_await vfs->Stat("/d/new");
    EXPECT_FALSE(attr.is_dir);
    co_await vfs->Unlink("/d/new");
    const int fd2 = co_await vfs->Open("/d/new", false);
    EXPECT_EQ(fd2, -1);
  };
  fx.kernel.Spawn("t", body(&fx.fs));
  fx.kernel.RunUntilThreadsFinish();
}

TEST(Ext2Namespace, CreateInMissingParentFails) {
  Fixture fx;
  auto body = [](osfs::Vfs* vfs) -> Task<void> {
    const int fd = co_await vfs->Create("/missing/f");
    EXPECT_EQ(fd, -1);
  };
  fx.kernel.Spawn("t", body(&fx.fs));
  fx.kernel.RunUntilThreadsFinish();
}

TEST(Ext2Fds, BadDescriptorThrows) {
  Fixture fx;
  auto body = [](osfs::Vfs* vfs) -> Task<void> {
    (void)co_await vfs->Read(42, 100);
  };
  fx.kernel.Spawn("t", body(&fx.fs));
  EXPECT_THROW(fx.kernel.RunUntilThreadsFinish(), std::invalid_argument);
}

TEST(ProfiledVfs, LayeredProfilingSeesBoundaryOps) {
  Fixture fx;
  fx.fs.AddFile("/f", 4096);
  SimProfiler fs_prof(&fx.kernel);
  SimProfiler user_prof(&fx.kernel);
  fx.fs.SetProfiler(&fs_prof);
  ProfiledVfs user_layer(&fx.fs, &user_prof);
  std::int64_t total = 0;
  fx.kernel.Spawn("r", ReadWholeFile(&user_layer, "/f", &total));
  fx.kernel.RunUntilThreadsFinish();
  // Both layers saw the read; only the fs layer saw readpage.
  EXPECT_NE(user_prof.profiles().Find("read"), nullptr);
  EXPECT_NE(fs_prof.profiles().Find("read"), nullptr);
  EXPECT_NE(fs_prof.profiles().Find("readpage"), nullptr);
  EXPECT_EQ(user_prof.profiles().Find("readpage"), nullptr);
  // The user layer's read latency must be >= the fs layer's (it includes
  // the boundary crossing).
  EXPECT_GE(user_prof.profiles().Find("read")->total_latency(),
            fs_prof.profiles().Find("read")->total_latency());
}

}  // namespace
}  // namespace osfs
