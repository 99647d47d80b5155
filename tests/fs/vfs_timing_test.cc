// Vfs times its ten operations the same way for every implementation:
// one script of calls records exactly those calls under the ten op names
// with a profiler attached, and nothing once SetProfiler(nullptr)
// detaches it.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "src/fs/cluster_fs.h"
#include "src/fs/ext2fs.h"
#include "src/fs/journalfs.h"
#include "src/fs/ntfs.h"
#include "src/fs/profiled_vfs.h"
#include "src/net/cifs.h"
#include "src/net/dlm.h"
#include "src/net/fabric.h"
#include "src/net/nfs.h"
#include "src/profilers/sim_profiler.h"
#include "src/sim/disk.h"
#include "src/sim/kernel.h"

namespace osfs {
namespace {

using osim::Task;
using osprofilers::SimProfiler;

using Calls = std::map<std::string, std::uint64_t>;

// What Script calls: two opens, three closes, one of each other op.
const Calls kScriptCalls = {
    {"open", 2},  {"close", 3},  {"read", 1},    {"write", 1},
    {"llseek", 1}, {"readdir", 1}, {"fsync", 1}, {"create", 1},
    {"unlink", 1}, {"stat", 1},
};

osim::KernelConfig QuietConfig(int nodes = 1) {
  osim::KernelConfig cfg;
  cfg.num_cpus = 2 * nodes;
  cfg.num_nodes = nodes;
  cfg.context_switch_cost = 0;
  cfg.timer_tick_period = 0;
  return cfg;
}

// Calls each op on /d, /d/f and a created /d/g, which it removes again.
Task<void> Script(Vfs* vfs) {
  const int dir = co_await vfs->Open("/d", false);
  EXPECT_GE(dir, 0);
  const DirentBatch batch = co_await vfs->Readdir(dir);
  EXPECT_EQ(batch.names.size(), 1u);
  co_await vfs->Close(dir);
  const int fd = co_await vfs->Open("/d/f", false);
  EXPECT_GE(fd, 0);
  const std::int64_t read = co_await vfs->Read(fd, 4096);
  EXPECT_EQ(read, 4096);
  const std::uint64_t pos = co_await vfs->Llseek(fd, 0);
  EXPECT_EQ(pos, 0u);
  const std::int64_t written = co_await vfs->Write(fd, 4096);
  EXPECT_EQ(written, 4096);
  co_await vfs->Fsync(fd);
  co_await vfs->Close(fd);
  const int created = co_await vfs->Create("/d/g");
  EXPECT_GE(created, 0);
  co_await vfs->Close(created);
  const FileAttr attr = co_await vfs->Stat("/d/f");
  EXPECT_EQ(attr.size, 8192u);
  co_await vfs->Unlink("/d/g");
}

Calls Recorded(const SimProfiler& profiler) {
  Calls calls;
  for (const auto& [op, count] : kScriptCalls) {
    const osprof::Profile* profile = profiler.profiles().Find(op);
    calls[op] = profile == nullptr ? 0 : profile->total_operations();
  }
  return calls;
}

Task<void> AttachedThenDetached(Vfs* vfs, SimProfiler* profiler,
                                Calls* attached, std::function<void()> done) {
  vfs->SetProfiler(profiler);
  co_await Script(vfs);
  *attached = Recorded(*profiler);
  vfs->SetProfiler(nullptr);
  co_await Script(vfs);
  if (done) {
    done();
  }
}

// Runs the script on `vfs` twice, attached and then detached; `done`
// runs after both (ClusterFs stops its DLM there).
void ExpectScriptTimed(osim::Kernel& kernel, Vfs* vfs,
                       std::function<void()> done = {}) {
  SimProfiler profiler(&kernel);
  Calls attached;
  kernel.Spawn("script", AttachedThenDetached(vfs, &profiler, &attached,
                                              std::move(done)));
  kernel.RunUntilThreadsFinish();
  EXPECT_EQ(attached, kScriptCalls);
  EXPECT_EQ(Recorded(profiler), kScriptCalls);
}

template <typename Fs>
void AddTree(Fs* fs) {
  fs->AddDir("/d");
  fs->AddFile("/d/f", 8192);
}

TEST(VfsTiming, Ext2SimFs) {
  osim::Kernel kernel(QuietConfig());
  osim::SimDisk disk(&kernel);
  Ext2SimFs fs(&kernel, &disk);
  AddTree(&fs);
  ExpectScriptTimed(kernel, &fs);
}

TEST(VfsTiming, NtfsSimFs) {
  osim::Kernel kernel(QuietConfig());
  osim::SimDisk disk(&kernel);
  NtfsSimFs fs(&kernel, &disk);
  AddTree(&fs);
  ExpectScriptTimed(kernel, &fs);
}

TEST(VfsTiming, JournalFs) {
  osim::Kernel kernel(QuietConfig());
  osim::SimDisk disk(&kernel);
  JournalFs fs(&kernel, &disk);
  AddTree(&fs);
  ExpectScriptTimed(kernel, &fs);
}

TEST(VfsTiming, ClusterFsNode) {
  osim::Kernel kernel(QuietConfig(/*nodes=*/2));
  osim::SimDisk disk(&kernel);
  osnet::Fabric fabric(&kernel);
  osnet::Dlm dlm(&kernel, &fabric);
  ClusterVolume volume(&kernel, &disk);
  AddTree(&volume);
  ClusterFsNode node(&volume, &dlm, 0);
  dlm.Start();
  ExpectScriptTimed(kernel, &node, [&dlm] { dlm.Shutdown(); });
}

TEST(VfsTiming, CifsMount) {
  osim::Kernel kernel(QuietConfig());
  osim::SimDisk disk(&kernel);
  Ext2SimFs server_fs(&kernel, &disk);
  AddTree(&server_fs);
  osnet::CifsMount mount(&kernel, &server_fs, osnet::CifsConfig{});
  ExpectScriptTimed(kernel, &mount);
}

TEST(VfsTiming, NfsMount) {
  osim::Kernel kernel(QuietConfig());
  osim::SimDisk disk(&kernel);
  Ext2SimFs server_fs(&kernel, &disk);
  AddTree(&server_fs);
  osnet::NfsMount mount(&kernel, &server_fs, osnet::NfsConfig{});
  ExpectScriptTimed(kernel, &mount);
}

TEST(VfsTiming, ProfiledVfsOverExt2) {
  osim::Kernel kernel(QuietConfig());
  osim::SimDisk disk(&kernel);
  Ext2SimFs fs(&kernel, &disk);
  AddTree(&fs);
  ProfiledVfs layer(&fs, nullptr);
  ExpectScriptTimed(kernel, &layer);
}

}  // namespace
}  // namespace osfs
