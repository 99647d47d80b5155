// NFS edge cases: empty directories, missing files, cookie continuation,
// concurrent clients, and the parent a create looks up.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/fs/ext2fs.h"
#include "src/net/nfs.h"

namespace osnet {
namespace {

using osfs::Ext2SimFs;
using osim::Kernel;
using osim::KernelConfig;
using osim::SimDisk;
using osim::Task;

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

TEST(NfsEdge, EmptyDirectoryYieldsImmediateEof) {
  Harness h;
  h.server_fs.AddDir("/export");
  auto body = [](osfs::Vfs* vfs) -> Task<void> {
    const int fd = co_await vfs->Open("/export", false);
    const osfs::DirentBatch batch = co_await vfs->Readdir(fd);
    EXPECT_TRUE(batch.at_end);
    EXPECT_TRUE(batch.names.empty());
    co_await vfs->Close(fd);
  };
  h.kernel.Spawn("c", body(&h.mount));
  h.kernel.RunUntilThreadsFinish();
}

TEST(NfsEdge, StatOfMissingFileReturnsEmptyAttr) {
  Harness h;
  auto body = [](osfs::Vfs* vfs) -> Task<void> {
    const osfs::FileAttr attr = co_await vfs->Stat("/nope");
    EXPECT_EQ(attr.size, 0u);
    EXPECT_FALSE(attr.is_dir);
  };
  h.kernel.Spawn("c", body(&h.mount));
  h.kernel.RunUntilThreadsFinish();
}

TEST(NfsEdge, CookieContinuationSpansManyRpcs) {
  NfsConfig cfg;
  cfg.entries_per_readdir = 16;
  Harness h(cfg);
  h.server_fs.AddDir("/export");
  for (int i = 0; i < 100; ++i) {
    h.server_fs.AddFile("/export/f" + std::to_string(i), 64);
  }
  osprofilers::SimProfiler prof(&h.kernel);
  h.mount.SetProfiler(&prof);
  std::size_t count = 0;
  auto body = [](osfs::Vfs* vfs, std::size_t* n) -> Task<void> {
    const int fd = co_await vfs->Open("/export", false);
    while (true) {
      const osfs::DirentBatch batch = co_await vfs->Readdir(fd);
      if (batch.names.empty()) {
        break;
      }
      *n += batch.names.size();
    }
    co_await vfs->Close(fd);
  };
  h.kernel.Spawn("c", body(&h.mount, &count));
  h.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(count, 100u);
  // ceil(100/16) = 7 READDIR RPCs.
  EXPECT_EQ(prof.profiles().Find("nfs_readdir")->total_operations(), 7u);
}

TEST(NfsEdge, TwoClientsShareOneMountSafely) {
  Harness h;
  h.server_fs.AddDir("/export");
  h.server_fs.AddFile("/export/a", 8'192);
  h.server_fs.AddFile("/export/b", 8'192);
  auto reader = [](osfs::Vfs* vfs, std::string path) -> Task<void> {
    for (int round = 0; round < 3; ++round) {
      const int fd = co_await vfs->Open(path, false);
      std::int64_t got = 0;
      do {
        got = co_await vfs->Read(fd, 4'096);
      } while (got > 0);
      co_await vfs->Close(fd);
    }
  };
  h.kernel.Spawn("c1", reader(&h.mount, "/export/a"));
  h.kernel.Spawn("c2", reader(&h.mount, "/export/b"));
  h.kernel.RunUntilThreadsFinish();
  // Each file's pages were fetched once, then served from the client
  // cache across all remaining rounds.
  EXPECT_GE(h.mount.rpcs_sent(), 4u);
}

TEST(NfsEdge, CreateInMissingDirectoryFails) {
  Harness h;
  auto body = [](osfs::Vfs* vfs) -> Task<void> {
    EXPECT_EQ(co_await vfs->Create("/nodir/f"), -1);
  };
  h.kernel.Spawn("c", body(&h.mount));
  h.kernel.RunUntilThreadsFinish();
}

TEST(NfsEdge, CreateLooksUpOnlyTheParent) {
  // Ext2 resolves "newfile" and "/newfile" alike, to a file in the root:
  // neither parent has a component to look up.
  Harness h;
  h.server_fs.AddDir("/export");
  std::vector<std::uint64_t> lookups;
  auto body = [](NfsMount* mount,
                 std::vector<std::uint64_t>* lookups) -> Task<void> {
    for (const char* path : {"newfile", "/newfile2", "/export/f"}) {
      const std::uint64_t before = mount->lookup_rpcs();
      EXPECT_GE(co_await mount->Create(path), 0) << path;
      lookups->push_back(mount->lookup_rpcs() - before);
    }
  };
  h.kernel.Spawn("c", body(&h.mount, &lookups));
  h.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(lookups, (std::vector<std::uint64_t>{0, 0, 1}));
  EXPECT_TRUE(h.server_fs.Exists("/newfile"));
}

}  // namespace
}  // namespace osnet
