// Byte-level fixtures for the network outputs that no golden covers:
// fig11's two packet timelines.  The test reruns the bench's machine and
// compares the bytes it renders with tests/net/fixtures/; a mismatch
// names the file and its first differing line.  OSPROF_UPDATE_FIXTURES=1
// rewrites the fixtures instead, for a change that means to move these
// outputs.  The remote greps (fig10, fig10_linux, nfs_grep) are gated
// scenarios with goldens in tests/golden/.
//
// The last test runs one script through both mounts against identical
// Ext2 servers: the two clients must make the same calls on the exported
// file system for create, write, fsync, read and unlink.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "bench/bench_util.h"
#include "src/fs/ext2fs.h"
#include "src/net/cifs.h"
#include "src/net/nfs.h"
#include "src/profilers/sim_profiler.h"
#include "src/sim/disk.h"
#include "src/sim/kernel.h"
#include "src/tools/scenario_front_end.h"

namespace osnet {
namespace {

using osfs::Ext2SimFs;
using osim::Task;
using osprofilers::SimProfiler;

std::string FixturePath(const std::string& name) {
  return std::string(OSPROF_SOURCE_DIR) + "/tests/net/fixtures/" + name;
}

// Compares `got` with the fixture `name`, or rewrites the fixture when
// OSPROF_UPDATE_FIXTURES is set.
void ExpectFixture(const std::string& name, const std::string& got) {
  const std::string path = FixturePath(name);
  const char* update = std::getenv("OSPROF_UPDATE_FIXTURES");
  if (update != nullptr && update[0] != '\0') {
    std::ofstream out(path, std::ios::binary);
    out << got;
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream want;
  want << in.rdbuf();
  if (want.str() == got) {
    return;
  }
  const ostools::LineDifference diff =
      ostools::FirstDifferingLine(want.str(), got);
  ADD_FAILURE() << name << " differs from line " << diff.line
                << ":\n  fixture:  " << diff.want
                << "\n  measured: " << diff.got;
}

TEST(RemoteFixtures, PacketTimelinesMatchFig11) {
  ExpectFixture("fig11_cifs_timeline.windows.txt",
                osbench::FindFirstTimeline(ClientOs::kWindows).packets);
  ExpectFixture("fig11_cifs_timeline.linux.txt",
                osbench::FindFirstTimeline(ClientOs::kLinux).packets);
}

Task<void> CreateWriteReadUnlink(osfs::Vfs* vfs) {
  const int fd = co_await vfs->Create("/share/new.txt");
  EXPECT_GE(fd, 0);
  EXPECT_EQ(co_await vfs->Write(fd, 5'000), 5'000);
  co_await vfs->Fsync(fd);
  (void)co_await vfs->Llseek(fd, 0);
  EXPECT_EQ(co_await vfs->Read(fd, 5'000), 5'000);
  co_await vfs->Close(fd);
  co_await vfs->Unlink("/share/new.txt");
}

// The script's calls on the exported file system, by operation name.
template <typename MountT, typename ConfigT>
std::map<std::string, std::uint64_t> ServerCalls() {
  osim::KernelConfig kcfg;
  kcfg.num_cpus = 4;
  kcfg.context_switch_cost = 0;
  kcfg.timer_tick_period = 0;
  osim::Kernel kernel(kcfg);
  osim::SimDisk disk(&kernel);
  Ext2SimFs server_fs(&kernel, &disk);
  server_fs.AddDir("/share");
  SimProfiler server_profiler(&kernel);
  server_fs.SetProfiler(&server_profiler);
  MountT mount(&kernel, &server_fs, ConfigT{});
  kernel.Spawn("client", CreateWriteReadUnlink(&mount));
  kernel.RunUntilThreadsFinish();
  std::map<std::string, std::uint64_t> calls;
  for (const char* op :
       {"create", "write", "fsync", "read", "llseek", "unlink"}) {
    const osprof::Profile* p = server_profiler.profiles().Find(op);
    calls[op] = p == nullptr ? 0 : p->total_operations();
  }
  return calls;
}

TEST(RemoteFixtures, BothMountsMakeTheSameServerCalls) {
  const auto cifs = ServerCalls<CifsMount, CifsConfig>();
  const auto nfs = ServerCalls<NfsMount, NfsConfig>();
  EXPECT_EQ(cifs, nfs);
  // One create, write, fsync and unlink; two page reads, each after a
  // seek, and the write's seek.
  EXPECT_EQ(cifs, (std::map<std::string, std::uint64_t>{{"create", 1},
                                                        {"fsync", 1},
                                                        {"llseek", 3},
                                                        {"read", 2},
                                                        {"unlink", 1},
                                                        {"write", 1}}));
}

}  // namespace
}  // namespace osnet
