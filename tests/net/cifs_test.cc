#include "src/net/cifs.h"

#include <gtest/gtest.h>

#include "src/fs/ext2fs.h"
#include "src/workloads/workloads.h"

namespace osnet {
namespace {

using osfs::Ext2SimFs;
using osim::Kernel;
using osim::KernelConfig;
using osim::SimDisk;

KernelConfig QuietConfig() {
  KernelConfig cfg;
  cfg.num_cpus = 4;  // Client and server "machines".
  cfg.context_switch_cost = 0;
  cfg.timer_tick_period = 0;
  return cfg;
}

struct Harness {
  explicit Harness(CifsConfig cifs_config = {}, PacketTrace* trace = nullptr)
      : kernel(QuietConfig()),
        disk(&kernel),
        server_fs(&kernel, &disk),
        mount(&kernel, &server_fs, cifs_config, trace) {}
  Kernel kernel;
  SimDisk disk;
  Ext2SimFs server_fs;
  CifsMount mount;
};

void PopulateDir(Ext2SimFs* fs, const std::string& dir, int files) {
  fs->AddDir(dir);
  for (int i = 0; i < files; ++i) {
    fs->AddFile(dir + "/f" + std::to_string(i), 4'000);
  }
}

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

TEST(CifsMount, EnumeratesRemoteDirectoryCompletely) {
  Harness h;
  PopulateDir(&h.server_fs, "/share", 100);
  std::vector<std::string> names;
  h.kernel.Spawn("client", ListDir(&h.mount, "/share", &names));
  h.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(names.size(), 100u);
}

// Two Find transactions on one cold directory: the first enumerates it on
// the server, the second waits for that listing instead of appending every
// entry a second time.
TEST(CifsMount, TwoClientsListingAColdDirectoryEachSeeItOnce) {
  Harness h;
  PopulateDir(&h.server_fs, "/share", 30);
  std::vector<std::string> first;
  std::vector<std::string> second;
  h.kernel.Spawn("client1", ListDir(&h.mount, "/share", &first));
  h.kernel.Spawn("client2", ListDir(&h.mount, "/share", &second));
  h.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(first.size(), 30u);
  EXPECT_EQ(second.size(), 30u);
  EXPECT_EQ(first, second);
}

TEST(CifsMount, WindowsClientStallsOnDelayedAcks) {
  CifsConfig cfg;
  cfg.client_os = ClientOs::kWindows;
  Harness h(cfg);
  PopulateDir(&h.server_fs, "/share", 100);
  osprofilers::SimProfiler prof(&h.kernel);
  h.mount.SetProfiler(&prof);
  std::vector<std::string> names;
  h.kernel.Spawn("client", ListDir(&h.mount, "/share", &names));
  h.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(names.size(), 100u);
  EXPECT_GT(h.mount.delayed_ack_stalls(), 0u);
  // FindFirst latency includes a 200ms stall: bucket >= 26.
  const osprof::Profile* ff = prof.profiles().Find("findfirst");
  ASSERT_NE(ff, nullptr);
  EXPECT_GE(ff->histogram().FirstNonEmpty(), 26);
  EXPECT_LE(ff->histogram().LastNonEmpty(), 30);
}

TEST(CifsMount, LinuxClientAvoidsStallsViaPiggybackedAcks) {
  CifsConfig cfg;
  cfg.client_os = ClientOs::kLinux;
  Harness h(cfg);
  PopulateDir(&h.server_fs, "/share", 100);
  osprofilers::SimProfiler prof(&h.kernel);
  h.mount.SetProfiler(&prof);
  std::vector<std::string> names;
  h.kernel.Spawn("client", ListDir(&h.mount, "/share", &names));
  h.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(names.size(), 100u);
  EXPECT_EQ(h.mount.delayed_ack_stalls(), 0u);
  // No Find operation waits anywhere near 200ms (bucket 26+).
  for (const char* op : {"findfirst", "findnext"}) {
    const osprof::Profile* p = prof.profiles().Find(op);
    if (p != nullptr && p->total_operations() > 0) {
      EXPECT_LT(p->histogram().LastNonEmpty(), 26) << op;
    }
  }
  EXPECT_GT(prof.profiles().Find("findnext")->total_operations(), 0u);
}

TEST(CifsMount, DisablingDelayedAckRemovesWindowsStalls) {
  // The registry-key experiment: the server's push gate may still block
  // for segments in flight (~hundreds of us) but never for the 200ms
  // delayed-ACK timeout, so no Find operation reaches bucket 26.
  CifsConfig cfg;
  cfg.client_os = ClientOs::kWindows;
  cfg.client_delayed_ack = false;
  Harness h(cfg);
  PopulateDir(&h.server_fs, "/share", 100);
  osprofilers::SimProfiler prof(&h.kernel);
  h.mount.SetProfiler(&prof);
  std::vector<std::string> names;
  h.kernel.Spawn("client", ListDir(&h.mount, "/share", &names));
  h.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(names.size(), 100u);
  EXPECT_EQ(h.mount.client_ack_policy().delayed_acks_fired(), 0u);
  for (const char* op : {"findfirst", "findnext"}) {
    const osprof::Profile* p = prof.profiles().Find(op);
    if (p != nullptr && p->total_operations() > 0) {
      EXPECT_LT(p->histogram().LastNonEmpty(), 26) << op;
    }
  }
}

osim::Task<void> ReadTwice(osfs::Vfs* vfs, std::string path,
                           osprof::Cycles* cold, osprof::Cycles* warm,
                           Kernel* k) {
  const int fd = co_await vfs->Open(path, false);
  osprof::Cycles t0 = k->ReadTsc();
  (void)co_await vfs->Read(fd, 4'000);
  *cold = k->ReadTsc() - t0;
  (void)co_await vfs->Llseek(fd, 0);
  t0 = k->ReadTsc();
  (void)co_await vfs->Read(fd, 4'000);
  *warm = k->ReadTsc() - t0;
  co_await vfs->Close(fd);
}

TEST(CifsMount, LocalRemoteBoundaryAtBucket18) {
  // §6.4: requests above ~168us (bucket 18) involve the server; cached
  // requests stay local and faster.
  Harness h;
  PopulateDir(&h.server_fs, "/share", 2);
  osprof::Cycles cold = 0;
  osprof::Cycles warm = 0;
  h.kernel.Spawn("client",
                 ReadTwice(&h.mount, "/share/f0", &cold, &warm, &h.kernel));
  h.kernel.RunUntilThreadsFinish();
  EXPECT_GE(osprof::BucketIndex(cold), 18);  // Server round trip.
  EXPECT_LT(osprof::BucketIndex(warm), 18);  // Client cache.
}

TEST(CifsMount, PacketTraceShowsFigure11Timeline) {
  CifsConfig cfg;
  cfg.client_os = ClientOs::kWindows;
  PacketTrace trace;
  Harness h(cfg, &trace);
  PopulateDir(&h.server_fs, "/share", 100);
  std::vector<std::string> names;
  h.kernel.Spawn("client", ListDir(&h.mount, "/share", &names));
  h.kernel.RunUntilThreadsFinish();
  const std::string timeline = trace.Render(1.7e9);
  EXPECT_NE(timeline.find("FIND_FIRST request"), std::string::npos);
  EXPECT_NE(timeline.find("reply continuation"), std::string::npos);
  EXPECT_NE(timeline.find("transact continuation"), std::string::npos);
  EXPECT_NE(timeline.find("ACK (delayed 200ms)"), std::string::npos);
}

TEST(CifsMount, WriteThroughUpdatesServerFs) {
  Harness h;
  h.server_fs.AddDir("/share");
  auto body = [](osfs::Vfs* vfs) -> osim::Task<void> {
    const int fd = co_await vfs->Create("/share/new.txt");
    EXPECT_GE(fd, 0);
    (void)co_await vfs->Write(fd, 5'000);
    co_await vfs->Fsync(fd);
    co_await vfs->Close(fd);
  };
  h.kernel.Spawn("client", body(&h.mount));
  h.kernel.RunUntilThreadsFinish();
  EXPECT_TRUE(h.server_fs.Exists("/share/new.txt"));
  EXPECT_EQ(h.server_fs.FileSize("/share/new.txt"), 5'000u);
}

TEST(CifsMount, UnlinkRemovesOnServer) {
  Harness h;
  PopulateDir(&h.server_fs, "/share", 1);
  auto body = [](osfs::Vfs* vfs) -> osim::Task<void> {
    co_await vfs->Unlink("/share/f0");
  };
  h.kernel.Spawn("client", body(&h.mount));
  h.kernel.RunUntilThreadsFinish();
  EXPECT_FALSE(h.server_fs.Exists("/share/f0"));
}

TEST(CifsMount, GrepWorkloadRunsOverTheMount) {
  // The same workload code drives local and remote file systems.
  Harness h;
  osworkloads::TreeSpec spec;
  spec.top_dirs = 2;
  spec.subdirs_per_dir = 1;
  spec.depth = 1;
  spec.files_per_dir = 3;
  const osworkloads::BuiltTree tree =
      osworkloads::BuildSourceTree(&h.server_fs, "/export", spec);
  osworkloads::GrepStats stats;
  h.kernel.Spawn("grep", osworkloads::GrepWorkload(&h.kernel, &h.mount,
                                                   "/export", 0.5, &stats));
  h.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(stats.files_read, tree.files.size());
  EXPECT_EQ(stats.bytes_read, tree.total_bytes);
  EXPECT_GT(h.mount.server_requests(), 0u);
}

}  // namespace
}  // namespace osnet
