#include "src/net/nfs.h"

#include <gtest/gtest.h>

#include "src/core/layered.h"
#include "src/fs/ext2fs.h"
#include "src/profilers/sim_profiler.h"
#include "src/workloads/workloads.h"

namespace osnet {
namespace {

using osfs::Ext2SimFs;
using osim::Kernel;
using osim::KernelConfig;
using osim::SimDisk;

KernelConfig QuietConfig() {
  KernelConfig cfg;
  cfg.num_cpus = 4;
  cfg.context_switch_cost = 0;
  cfg.timer_tick_period = 0;
  return cfg;
}

struct Harness {
  explicit Harness(NfsConfig cfg = {})
      : kernel(QuietConfig()),
        disk(&kernel),
        server_fs(&kernel, &disk),
        mount(&kernel, &server_fs, cfg) {}
  Kernel kernel;
  SimDisk disk;
  Ext2SimFs server_fs;
  NfsMount mount;
};

osim::Task<void> ListDir(osfs::Vfs* vfs, std::string path,
                         std::vector<std::string>* names) {
  const int fd = co_await vfs->Open(path, false);
  EXPECT_GE(fd, 0);
  while (true) {
    const osfs::DirentBatch batch = co_await vfs->Readdir(fd);
    if (batch.names.empty()) {
      break;
    }
    names->insert(names->end(), batch.names.begin(), batch.names.end());
  }
  co_await vfs->Close(fd);
}

// Builds a small kernel-source-like tree under /export on the server and
// greps it through the mount.
osworkloads::BuiltTree GrepExport(Harness* h, osworkloads::GrepStats* stats) {
  osworkloads::TreeSpec spec;
  spec.top_dirs = 2;
  spec.subdirs_per_dir = 1;
  spec.depth = 1;
  spec.files_per_dir = 4;
  osworkloads::BuiltTree tree =
      osworkloads::BuildSourceTree(&h->server_fs, "/export", spec);
  h->kernel.Spawn("grep", osworkloads::GrepWorkload(&h->kernel, &h->mount,
                                                    "/export", 0.5, stats));
  h->kernel.RunUntilThreadsFinish();
  return tree;
}

TEST(NfsMount, EnumeratesRemoteDirectory) {
  Harness h;
  h.server_fs.AddDir("/export");
  for (int i = 0; i < 150; ++i) {
    h.server_fs.AddFile("/export/f" + std::to_string(i), 2'000);
  }
  std::vector<std::string> names;
  h.kernel.Spawn("client", ListDir(&h.mount, "/export", &names));
  h.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(names.size(), 150u);
}

TEST(NfsMount, LookupStormWalksOneComponentPerRpc) {
  Harness h;
  h.server_fs.AddDir("/a");
  h.server_fs.AddDir("/a/b");
  h.server_fs.AddDir("/a/b/c");
  h.server_fs.AddFile("/a/b/c/f", 1'000);
  auto body = [](osfs::Vfs* vfs) -> osim::Task<void> {
    const int fd = co_await vfs->Open("/a/b/c/f", false);
    EXPECT_GE(fd, 0);
    co_await vfs->Close(fd);
  };
  h.kernel.Spawn("client", body(&h.mount));
  h.kernel.RunUntilThreadsFinish();
  // Four components = four LOOKUP RPCs; attributes come with the final
  // lookup, so no extra GETATTR.
  EXPECT_EQ(h.mount.lookup_rpcs(), 4u);

  // A second open of the same path hits the dentry/attr caches: no new
  // lookups.
  h.kernel.Spawn("client2", body(&h.mount));
  h.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(h.mount.lookup_rpcs(), 4u);
  EXPECT_GT(h.mount.attr_cache_hits(), 0u);
}

TEST(NfsMount, AttributeCacheExpiresAfterTimeout) {
  NfsConfig cfg;
  cfg.attr_cache_timeout = 1'000'000;  // Short ac-timeo.
  Harness h(cfg);
  h.server_fs.AddFile("/f", 1'000);
  auto stat_once = [](osfs::Vfs* vfs) -> osim::Task<void> {
    (void)co_await vfs->Stat("/f");
  };
  h.kernel.Spawn("s1", stat_once(&h.mount));
  h.kernel.RunUntilThreadsFinish();
  const std::uint64_t rpcs_first = h.mount.rpcs_sent();
  // Within the window: served from cache.
  h.kernel.Spawn("s2", stat_once(&h.mount));
  h.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(h.mount.rpcs_sent(), rpcs_first);
  // After expiry: a revalidation RPC goes out.
  h.kernel.RunFor(2'000'000);
  h.kernel.Spawn("s3", stat_once(&h.mount));
  h.kernel.RunUntilThreadsFinish();
  EXPECT_GT(h.mount.rpcs_sent(), rpcs_first);
}

TEST(NfsMount, NoDelayedAckStallsEver) {
  // The structural contrast with the Windows CIFS client: every RPC reply
  // is consumed immediately and the next call acknowledges it, so no Find
  // operation can reach the 200ms bucket regardless of directory size.
  Harness h;
  h.server_fs.AddDir("/export");
  for (int i = 0; i < 300; ++i) {
    h.server_fs.AddFile("/export/f" + std::to_string(i), 500);
  }
  osprofilers::SimProfiler prof(&h.kernel);
  h.mount.SetProfiler(&prof);
  std::vector<std::string> names;
  h.kernel.Spawn("client", ListDir(&h.mount, "/export", &names));
  h.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(names.size(), 300u);
  const osprof::Profile* rd = prof.profiles().Find("nfs_readdir");
  ASSERT_NE(rd, nullptr);
  EXPECT_GT(rd->total_operations(), 1u);  // Multiple cookie rounds.
  EXPECT_LT(rd->histogram().LastNonEmpty(), 26);  // Never near 200ms.
}

TEST(NfsMount, ReadsAreCachedClientSide) {
  Harness h;
  h.server_fs.AddDir("/export");
  h.server_fs.AddFile("/export/f", 8'192);
  auto read_twice = [](osfs::Vfs* vfs, std::uint64_t* rpcs_between,
                       NfsMount* m) -> osim::Task<void> {
    const int fd = co_await vfs->Open("/export/f", false);
    std::int64_t got = 0;
    do {
      got = co_await vfs->Read(fd, 4'096);
    } while (got > 0);
    *rpcs_between = m->rpcs_sent();
    (void)co_await vfs->Llseek(fd, 0);
    do {
      got = co_await vfs->Read(fd, 4'096);
    } while (got > 0);
    co_await vfs->Close(fd);
  };
  std::uint64_t rpcs_after_first = 0;
  h.kernel.Spawn("client",
                 read_twice(&h.mount, &rpcs_after_first, &h.mount));
  h.kernel.RunUntilThreadsFinish();
  EXPECT_GT(rpcs_after_first, 0u);
  EXPECT_EQ(h.mount.rpcs_sent(), rpcs_after_first);  // Second pass local.
}

TEST(NfsMount, WriteCreateUnlinkRoundTripToServer) {
  Harness h;
  h.server_fs.AddDir("/export");
  auto body = [](osfs::Vfs* vfs) -> osim::Task<void> {
    const int fd = co_await vfs->Create("/export/new");
    EXPECT_GE(fd, 0);
    (void)co_await vfs->Write(fd, 6'000);
    co_await vfs->Fsync(fd);
    co_await vfs->Close(fd);
    co_await vfs->Unlink("/export/new");
  };
  h.kernel.Spawn("client", body(&h.mount));
  h.kernel.RunUntilThreadsFinish();
  EXPECT_FALSE(h.server_fs.Exists("/export/new"));
  EXPECT_GT(h.mount.rpcs_sent(), 3u);
}

TEST(NfsMount, GrepWorkloadRunsOverTheMount) {
  Harness h;
  osworkloads::GrepStats stats;
  const osworkloads::BuiltTree tree = GrepExport(&h, &stats);
  EXPECT_EQ(stats.files_read, tree.files.size());
  EXPECT_EQ(stats.bytes_read, tree.total_bytes);
  EXPECT_GT(h.mount.lookup_rpcs(), tree.files.size());  // The lookup storm.
}

// Every NFS operation and RPC is timed through SimProfiler::Wrap, so a
// profiled grep decomposes: a read's remote page fetches show up as net
// cycles, and each op's decomposition holds exactly its flat profile --
// the same bucket counts, component cycles summing to its total latency.
TEST(NfsMount, ProfiledGrepDecomposesAndConserves) {
  Harness h;
  osprofilers::SimProfiler prof(&h.kernel);
  prof.set_layer("nfs");
  h.mount.SetProfiler(&prof);
  osworkloads::GrepStats stats;
  GrepExport(&h, &stats);

  const osprof::ProfileSet flat = prof.Collect();
  const osprof::LayeredProfileSet* layered = prof.layered();
  ASSERT_NE(layered, nullptr);
  const osprof::LayeredProfile* read = layered->Find("read");
  ASSERT_NE(read, nullptr);
  osprof::Cycles read_net = 0;
  for (const auto& [bucket, data] : read->buckets()) {
    read_net += data.cycles[osprof::kLayerNet];
  }
  EXPECT_GT(read_net, 0u);

  ASSERT_FALSE(flat.empty());
  for (const auto& [op, profile] : flat) {
    const osprof::LayeredProfile* decomposed = layered->Find(op);
    ASSERT_NE(decomposed, nullptr) << op;
    osprof::Cycles cycles = 0;
    for (const auto& [bucket, data] : decomposed->buckets()) {
      EXPECT_EQ(data.count, profile.histogram().bucket(bucket))
          << op << " bucket " << bucket;
      cycles += data.TotalCycles();
    }
    EXPECT_EQ(decomposed->total_count(), profile.total_operations()) << op;
    EXPECT_EQ(cycles, profile.total_latency()) << op;
  }
}

}  // namespace
}  // namespace osnet
