// Pins path lookup on its edge cases: empty and all-slash paths, doubled
// and trailing slashes, a missing component and a file used as a
// directory.  Ext2, ClusterFs and NFS must resolve each as they always
// have; NFS must send the same number of LOOKUP RPCs.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/fs/cluster_fs.h"
#include "src/fs/ext2fs.h"
#include "src/fs/vfs.h"
#include "src/net/dlm.h"
#include "src/net/fabric.h"
#include "src/net/nfs.h"
#include "src/sim/disk.h"
#include "src/sim/kernel.h"

namespace osfs {
namespace {

const std::vector<std::string>& EdgePaths() {
  static const std::vector<std::string> kPaths = {
      "", "/", "//", "a", "/a//b/", "/a/missing/c", "/a/f/x", "/a/f",
      "a/b/c",
  };
  return kPaths;
}

osim::KernelConfig Quiet(int cpus, int nodes = 1) {
  osim::KernelConfig cfg;
  cfg.num_cpus = cpus;
  cfg.num_nodes = nodes;
  cfg.context_switch_cost = 0;
  cfg.timer_tick_period = 0;
  return cfg;
}

// Ext2 with its lookups exposed.
struct Ext2Probe : Ext2SimFs {
  using Ext2SimFs::Ext2SimFs;
  using Ext2SimFs::ResolveParent;
  using Ext2SimFs::ResolvePath;
};

// The tree every test builds: /a, /a/b, /a/f (file), /a/b/c (file).
template <typename Fs>
void BuildTree(Fs* fs) {
  fs->AddDir("/a");
  fs->AddDir("/a/b");
  fs->AddFile("/a/f", 100);
  fs->AddFile("/a/b/c", 200);
}

TEST(PathWalk, Ext2ResolvesEdgeCases) {
  osim::Kernel k(Quiet(1));
  osim::SimDisk disk(&k);
  Ext2Probe fs(&k, &disk);
  BuildTree(&fs);
  std::vector<int> ids;
  std::vector<std::pair<int, std::string>> parents;
  for (const std::string& path : EdgePaths()) {
    ids.push_back(fs.ResolvePath(path));
    const auto [parent, leaf] = fs.ResolveParent(path);
    parents.emplace_back(parent, std::string(leaf));
  }
  // Inodes: root 0, a 1, b 2, f 3, c 4.
  EXPECT_EQ(ids, (std::vector<int>{0, 0, 0, 1, 2, -1, -1, 3, 4}));
  EXPECT_EQ(parents, (std::vector<std::pair<int, std::string>>{
                         {-1, ""},
                         {-1, ""},
                         {-1, ""},
                         {0, "a"},
                         {1, "b"},
                         {-1, ""},
                         {-1, ""},
                         {1, "f"},
                         {2, "c"},
                     }));
}

osim::Task<void> OpenEach(Vfs* vfs, std::vector<int>* opened,
                          osnet::Dlm* dlm, std::vector<std::uint64_t>* locks,
                          int* remaining) {
  for (const std::string& path : EdgePaths()) {
    const std::uint64_t before = dlm->acquires();
    const int fd = co_await vfs->Open(path, false);
    locks->push_back(dlm->acquires() - before);
    opened->push_back(fd >= 0 ? 1 : 0);
    if (fd >= 0) {
      co_await vfs->Close(fd);
    }
  }
  if (--*remaining == 0) {
    dlm->Shutdown();
  }
}

TEST(PathWalk, ClusterFsResolvesEdgeCases) {
  osim::Kernel k(Quiet(2));
  osim::SimDisk disk(&k);
  osnet::Fabric fabric(&k);
  osnet::Dlm dlm(&k, &fabric);
  ClusterVolume volume(&k, &disk);
  BuildTree(&volume);
  std::vector<int> ids;
  for (const std::string& path : EdgePaths()) {
    ids.push_back(volume.ResolvePath(path));
  }
  EXPECT_EQ(ids, (std::vector<int>{0, 0, 0, 1, 2, -1, -1, 3, 4}));

  ClusterFsNode node(&volume, &dlm, 0);
  dlm.Start();
  std::vector<int> opened;
  std::vector<std::uint64_t> locks;
  int remaining = 1;
  k.Spawn("client", OpenEach(&node, &opened, &dlm, &locks, &remaining));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(opened, (std::vector<int>{1, 1, 1, 1, 1, 0, 0, 1, 1}));
  // The locked walk takes one PR lock per directory it looks in and stops
  // at a file: "/a/f/x" learns from a's entry that f is a file, so it
  // never locks f.
  EXPECT_EQ(locks, (std::vector<std::uint64_t>{0, 0, 0, 1, 2, 2, 2, 2, 3}));
}

osim::Task<void> StatEach(Vfs* vfs, osnet::NfsMount* mount,
                          std::vector<std::uint64_t>* lookups) {
  for (const std::string& path : EdgePaths()) {
    const std::uint64_t before = mount->lookup_rpcs();
    (void)co_await vfs->Stat(path);
    lookups->push_back(mount->lookup_rpcs() - before);
  }
}

TEST(PathWalk, NfsSendsOneLookupPerUncachedComponent) {
  osim::Kernel k(Quiet(4));
  osim::SimDisk disk(&k);
  Ext2SimFs server(&k, &disk);
  BuildTree(&server);
  osnet::NfsMount mount(&k, &server, osnet::NfsConfig{});
  std::vector<std::uint64_t> lookups;
  k.Spawn("client", StatEach(&mount, &mount, &lookups));
  k.RunUntilThreadsFinish();
  // One LOOKUP per component, missing ones too, keyed by the normalized
  // prefix: "/a//b/" reuses "a"'s "/a" and looks up "/a/b" only, and
  // "/a/f" finds both its prefixes cached by "/a/f/x".
  EXPECT_EQ(lookups, (std::vector<std::uint64_t>{0, 0, 0, 1, 1, 2, 2, 0,
                                                 1}));
  EXPECT_EQ(mount.lookup_rpcs(), 7u);
}

}  // namespace
}  // namespace osfs
