// Byte-level fixtures for the network mounts' outputs that no golden
// covers: tab_nfs_vs_cifs's NFS grep (profiles and layered
// decomposition), fig10's Linux-client CIFS grep, and fig11's two packet
// timelines.  Each test reruns the bench's setup and compares the bytes it
// serializes with tests/net/fixtures/; a mismatch names the file and its
// first differing line.  OSPROF_UPDATE_FIXTURES=1 rewrites the fixtures
// instead, for a change that means to move these outputs.
//
// The last test runs one script through both mounts against identical
// Ext2 servers: the two clients must make the same calls on the exported
// file system for create, write, fsync, read and unlink.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>

#include "bench/bench_util.h"
#include "src/core/layered.h"
#include "src/fs/ext2fs.h"
#include "src/net/cifs.h"
#include "src/net/nfs.h"
#include "src/profilers/sim_profiler.h"
#include "src/runner/runner.h"
#include "src/sim/disk.h"
#include "src/sim/kernel.h"
#include "src/workloads/workloads.h"

namespace osnet {
namespace {

using osfs::Ext2SimFs;
using osim::Task;
using osprofilers::SimProfiler;

std::string FixturePath(const std::string& name) {
  return std::string(OSPROF_SOURCE_DIR) + "/tests/net/fixtures/" + name;
}

std::string LineAt(const std::string& text, std::size_t start) {
  return start < text.size()
             ? text.substr(start, text.find('\n', start) - start)
             : "(end of file)";
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
  std::ostringstream want_stream;
  want_stream << in.rdbuf();
  const std::string want = want_stream.str();
  if (want == got) {
    return;
  }
  // The first differing line starts after the last newline both share.
  const auto at =
      std::mismatch(want.begin(), want.end(), got.begin(), got.end()).first;
  const auto start =
      std::find(std::make_reverse_iterator(at), want.rend(), '\n').base();
  const auto offset = static_cast<std::size_t>(start - want.begin());
  ADD_FAILURE() << name << " differs from line "
                << 1 + std::count(want.begin(), start, '\n')
                << ":\n  fixture:  " << LineAt(want, offset)
                << "\n  measured: " << LineAt(got, offset);
}

// tab_nfs_vs_cifs's NFS run: grep over a 6x2-directory tree of 60-file
// directories, seed 55.
TEST(RemoteFixtures, NfsGrepMatchesTabNfsVsCifs) {
  osim::KernelConfig kcfg;
  kcfg.num_cpus = 4;
  kcfg.seed = 55;
  osim::Kernel kernel(kcfg);
  osim::SimDisk disk(&kernel);
  Ext2SimFs server_fs(&kernel, &disk);
  osworkloads::TreeSpec spec;
  spec.top_dirs = 6;
  spec.subdirs_per_dir = 2;
  spec.depth = 1;
  spec.files_per_dir = 60;
  osworkloads::BuildSourceTree(&server_fs, "/export", spec);
  NfsMount mount(&kernel, &server_fs, NfsConfig{});
  SimProfiler profiler(&kernel);
  mount.SetProfiler(&profiler);
  osworkloads::GrepStats stats;
  kernel.Spawn("grep", osworkloads::GrepWorkload(&kernel, &mount, "/export",
                                                 0.5, &stats));
  kernel.RunUntilThreadsFinish();
  ExpectFixture("tab_nfs_vs_cifs.nfs.prof", profiler.profiles().ToString());
  ExpectFixture("tab_nfs_vs_cifs.nfs.layers",
                osprof::LayersToString({{profiler.layer(),
                                         *profiler.layered()}}));
}

// fig10's Linux-client grep, through the runner as the bench runs it.
TEST(RemoteFixtures, LinuxCifsGrepMatchesFig10) {
  const osrunner::TrialResult linux = osrunner::RunTrial(
      osbench::CifsGrep(77, ClientOs::kLinux, /*delayed_ack=*/true), 0);
  ExpectFixture("fig10_cifs_profiles.linux.prof",
                linux.layers.at("cifs").ToString());
}

Task<void> EnumerateOnce(osfs::Vfs* vfs, std::string path) {
  const int fd = co_await vfs->Open(path, false);
  while (true) {
    const osfs::DirentBatch batch = co_await vfs->Readdir(fd);
    if (batch.names.empty()) {
      break;
    }
  }
  co_await vfs->Close(fd);
}

// fig11's timeline: one enumeration of a 100-file directory, seed 11.
std::string Fig11Timeline(ClientOs client_os) {
  osim::KernelConfig kcfg;
  kcfg.num_cpus = 4;
  kcfg.seed = 11;
  osim::Kernel kernel(kcfg);
  osim::SimDisk disk(&kernel);
  Ext2SimFs server_fs(&kernel, &disk);
  server_fs.AddDir("/export");
  for (int i = 0; i < 100; ++i) {
    server_fs.AddFile("/export/f" + std::to_string(i), 2'000);
  }
  CifsConfig ccfg;
  ccfg.client_os = client_os;
  PacketTrace trace;
  CifsMount mount(&kernel, &server_fs, ccfg, &trace);
  kernel.Spawn("client", EnumerateOnce(&mount, "/export"));
  kernel.RunUntilThreadsFinish();
  return trace.Render(osprof::kPaperCpuHz);
}

TEST(RemoteFixtures, PacketTimelinesMatchFig11) {
  ExpectFixture("fig11_cifs_timeline.windows.txt",
                Fig11Timeline(ClientOs::kWindows));
  ExpectFixture("fig11_cifs_timeline.linux.txt",
                Fig11Timeline(ClientOs::kLinux));
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
