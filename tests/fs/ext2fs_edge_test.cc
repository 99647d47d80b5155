// Ext2SimFs edge cases: seeks past EOF, partial pages, reopening,
// direct-I/O corners, cache interactions.

#include <gtest/gtest.h>

#include "src/fs/ext2fs.h"

namespace osfs {
namespace {

using osim::Kernel;
using osim::KernelConfig;
using osim::SimDisk;
using osim::Task;

KernelConfig QuietConfig() {
  KernelConfig cfg;
  cfg.num_cpus = 1;
  cfg.context_switch_cost = 0;
  cfg.timer_tick_period = 0;
  return cfg;
}

struct Fixture {
  Fixture() : kernel(QuietConfig()), disk(&kernel), fs(&kernel, &disk) {}
  Kernel kernel;
  SimDisk disk;
  Ext2SimFs fs;
};

TEST(Ext2Edge, ReadAfterSeekPastEofReturnsZero) {
  Fixture fx;
  fx.fs.AddFile("/f", 4'096);
  auto body = [](Vfs* vfs) -> Task<void> {
    const int fd = co_await vfs->Open("/f", false);
    (void)co_await vfs->Llseek(fd, 1u << 20);
    EXPECT_EQ(co_await vfs->Read(fd, 4096), 0);
    co_await vfs->Close(fd);
  };
  fx.kernel.Spawn("t", body(&fx.fs));
  fx.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(fx.disk.requests_completed(), 0u);
}

TEST(Ext2Edge, PartialTrailingPageReadsExactly) {
  Fixture fx;
  fx.fs.AddFile("/f", 4'096 + 123);
  auto body = [](Vfs* vfs) -> Task<void> {
    const int fd = co_await vfs->Open("/f", false);
    EXPECT_EQ(co_await vfs->Read(fd, 4'096), 4'096);
    EXPECT_EQ(co_await vfs->Read(fd, 4'096), 123);
    EXPECT_EQ(co_await vfs->Read(fd, 4'096), 0);
    co_await vfs->Close(fd);
  };
  fx.kernel.Spawn("t", body(&fx.fs));
  fx.kernel.RunUntilThreadsFinish();
}

TEST(Ext2Edge, UnalignedReadSpanningTwoPages) {
  Fixture fx;
  fx.fs.AddFile("/f", 12'288);
  auto body = [](Vfs* vfs) -> Task<void> {
    const int fd = co_await vfs->Open("/f", false);
    (void)co_await vfs->Llseek(fd, 4'000);
    EXPECT_EQ(co_await vfs->Read(fd, 1'000), 1'000);  // Pages 0 and 1.
    co_await vfs->Close(fd);
  };
  fx.kernel.Spawn("t", body(&fx.fs));
  fx.kernel.RunUntilThreadsFinish();
  // Both spanned pages were faulted in.
  EXPECT_EQ(fx.fs.page_cache().reads_started(), 2u);
}

TEST(Ext2Edge, FdsAreRecycledAfterClose) {
  Fixture fx;
  fx.fs.AddFile("/f", 4'096);
  auto body = [](Vfs* vfs) -> Task<void> {
    const int fd1 = co_await vfs->Open("/f", false);
    co_await vfs->Close(fd1);
    const int fd2 = co_await vfs->Open("/f", false);
    EXPECT_EQ(fd2, fd1);  // Slot reuse.
    co_await vfs->Close(fd2);
    // Two holes: whichever closed last, the lowest free fd comes back
    // first, then the next, then a fresh one.
    const int a = co_await vfs->Open("/f", false);
    const int b = co_await vfs->Open("/f", false);
    const int c = co_await vfs->Open("/f", false);
    co_await vfs->Close(b);
    co_await vfs->Close(a);
    EXPECT_EQ(co_await vfs->Open("/f", false), a);
    EXPECT_EQ(co_await vfs->Open("/f", false), b);
    EXPECT_EQ(co_await vfs->Open("/f", false), c + 1);
    co_await vfs->Close(a);
    co_await vfs->Close(b);
    EXPECT_EQ(co_await vfs->Open("/f", false), a);
    EXPECT_EQ(co_await vfs->Open("/f", false), b);
    co_await vfs->Close(a);
    co_await vfs->Close(b);
    co_await vfs->Close(c);
    co_await vfs->Close(c + 1);
  };
  fx.kernel.Spawn("t", body(&fx.fs));
  fx.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(fx.fs.open_files(), 0);
}

TEST(Ext2Edge, PositionIsPerDescriptorNotPerInode) {
  Fixture fx;
  fx.fs.AddFile("/f", 8'192);
  auto body = [](Vfs* vfs) -> Task<void> {
    const int a = co_await vfs->Open("/f", false);
    const int b = co_await vfs->Open("/f", false);
    (void)co_await vfs->Llseek(a, 8'000);
    // b's position is untouched.
    EXPECT_EQ(co_await vfs->Read(b, 4'096), 4'096);
    EXPECT_EQ(co_await vfs->Read(a, 4'096), 192);
    co_await vfs->Close(a);
    co_await vfs->Close(b);
  };
  fx.kernel.Spawn("t", body(&fx.fs));
  fx.kernel.RunUntilThreadsFinish();
}

TEST(Ext2Edge, DirectReadBypassesPageCache) {
  Fixture fx;
  fx.fs.AddFile("/f", 1u << 20);
  auto body = [](Vfs* vfs) -> Task<void> {
    const int fd = co_await vfs->Open("/f", /*direct_io=*/true);
    EXPECT_EQ(co_await vfs->Read(fd, 512), 512);
    EXPECT_EQ(co_await vfs->Read(fd, 512), 512);
    co_await vfs->Close(fd);
  };
  fx.kernel.Spawn("t", body(&fx.fs));
  fx.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(fx.fs.page_cache().resident_pages(), 0u);
  EXPECT_EQ(fx.disk.requests_completed(), 2u);  // Every read hits the disk.
}

TEST(Ext2Edge, WriteThenReadBackThroughCache) {
  Fixture fx;
  fx.fs.AddDir("/d");
  auto body = [](Vfs* vfs) -> Task<void> {
    const int fd = co_await vfs->Create("/d/f");
    (void)co_await vfs->Write(fd, 10'000);
    (void)co_await vfs->Llseek(fd, 0);
    std::int64_t total = 0;
    std::int64_t got = 0;
    do {
      got = co_await vfs->Read(fd, 4'096);
      total += got;
    } while (got > 0);
    EXPECT_EQ(total, 10'000);
    co_await vfs->Close(fd);
  };
  fx.kernel.Spawn("t", body(&fx.fs));
  fx.kernel.RunUntilThreadsFinish();
  // The dirty pages satisfied the reads; nothing was read from disk.
  EXPECT_EQ(fx.fs.page_cache().reads_started(), 0u);
}

TEST(Ext2Edge, StatMissingPathGivesZeroAttr) {
  Fixture fx;
  auto body = [](Vfs* vfs) -> Task<void> {
    const FileAttr attr = co_await vfs->Stat("/missing");
    EXPECT_EQ(attr.size, 0u);
    EXPECT_FALSE(attr.is_dir);
  };
  fx.kernel.Spawn("t", body(&fx.fs));
  fx.kernel.RunUntilThreadsFinish();
}

TEST(Ext2Edge, UnlinkNonexistentIsANoOp) {
  Fixture fx;
  fx.fs.AddDir("/d");
  auto body = [](Vfs* vfs) -> Task<void> {
    co_await vfs->Unlink("/d/ghost");
    co_await vfs->Unlink("/nodir/ghost");
  };
  fx.kernel.Spawn("t", body(&fx.fs));
  fx.kernel.RunUntilThreadsFinish();  // Must not throw or deadlock.
}

TEST(Ext2Edge, ReaddirOnFileReturnsAtEnd) {
  Fixture fx;
  fx.fs.AddFile("/f", 100);
  auto body = [](Vfs* vfs) -> Task<void> {
    const int fd = co_await vfs->Open("/f", false);
    const DirentBatch batch = co_await vfs->Readdir(fd);
    EXPECT_TRUE(batch.at_end);
    EXPECT_TRUE(batch.names.empty());
    co_await vfs->Close(fd);
  };
  fx.kernel.Spawn("t", body(&fx.fs));
  fx.kernel.RunUntilThreadsFinish();
}

}  // namespace
}  // namespace osfs
