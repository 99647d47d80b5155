#include "src/fs/page_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

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

TEST(PageCache, MissThenHit) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 100);
  const PageKey key{1, 0};
  EXPECT_FALSE(cache.Contains(key));
  auto reader = [](Kernel& kk, PageCache& c, PageKey pk) -> Task<void> {
    c.StartRead(pk, 1000);
    co_await c.WaitForPage(pk);
    (void)kk;
  };
  k.Spawn("r", reader(k, cache, key));
  k.RunUntilThreadsFinish();
  EXPECT_TRUE(cache.Contains(key));
  EXPECT_EQ(cache.reads_started(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(PageCache, DuplicateStartReadSubmitsOnce) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 100);
  const PageKey key{1, 0};
  cache.StartRead(key, 1000);
  cache.StartRead(key, 1000);
  EXPECT_EQ(cache.reads_started(), 1u);
  EXPECT_TRUE(cache.IoInProgress(key));
  k.RunFor(osim::Cycles{1} << 32);
  EXPECT_FALSE(cache.IoInProgress(key));
}

TEST(PageCache, MultipleWaitersAllWake) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 100);
  const PageKey key{1, 0};
  int woken = 0;
  auto waiter = [](PageCache& c, PageKey pk, int* count) -> Task<void> {
    co_await c.WaitForPage(pk);
    ++*count;
  };
  cache.StartRead(key, 1000);
  k.Spawn("w1", waiter(cache, key, &woken));
  k.Spawn("w2", waiter(cache, key, &woken));
  k.Spawn("w3", waiter(cache, key, &woken));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(woken, 3);
}

TEST(PageCache, WaitWithoutReadThrows) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 100);
  auto waiter = [](PageCache& c) -> Task<void> {
    co_await c.WaitForPage(PageKey{9, 9});
  };
  k.Spawn("w", waiter(cache));
  EXPECT_THROW(k.RunUntilThreadsFinish(), std::logic_error);
}

TEST(PageCache, DirtyPagesFlushByAge) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 100);
  cache.MarkDirty(PageKey{1, 0}, 1000);
  k.RunFor(1'000'000);
  cache.MarkDirty(PageKey{1, 1}, 1008);
  // Only the old page qualifies.
  EXPECT_EQ(cache.FlushOlderThan(500'000), 1);
  EXPECT_FALSE(cache.IsDirty(PageKey{1, 0}));
  EXPECT_TRUE(cache.IsDirty(PageKey{1, 1}));
  EXPECT_EQ(cache.FlushOlderThan(0), 1);  // Now the young one too.
}

TEST(PageCache, WriteBackClearsDirtySynchronously) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 100);
  cache.MarkDirty(PageKey{1, 0}, 1000);
  auto syncer = [](PageCache& c) -> Task<void> {
    co_await c.WriteBack(PageKey{1, 0});
  };
  k.Spawn("s", syncer(cache));
  k.RunUntilThreadsFinish();
  EXPECT_FALSE(cache.IsDirty(PageKey{1, 0}));
  EXPECT_EQ(cache.writebacks(), 1u);
  EXPECT_EQ(disk.requests_completed(), 1u);
}

TEST(PageCache, LruEvictionPrefersColdPages) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 3);
  cache.MarkValid(PageKey{1, 0}, 1000);
  cache.MarkValid(PageKey{1, 1}, 1008);
  cache.MarkValid(PageKey{1, 2}, 1016);
  EXPECT_TRUE(cache.Contains(PageKey{1, 0}));  // Touch 0: now hottest.
  cache.MarkValid(PageKey{1, 3}, 1024);        // Evicts page 1 (coldest).
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.Contains(PageKey{1, 1}));
  EXPECT_TRUE(cache.Contains(PageKey{1, 0}));
  EXPECT_TRUE(cache.Contains(PageKey{1, 3}));
}

TEST(PageCache, EvictingDirtyPageWritesItBack) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 1);
  cache.MarkDirty(PageKey{1, 0}, 1000);
  cache.MarkValid(PageKey{1, 1}, 1008);  // Evicts the dirty page.
  EXPECT_EQ(cache.writebacks(), 1u);
  k.RunFor(osim::Cycles{1} << 32);
  EXPECT_EQ(disk.requests_completed(), 1u);
}

TEST(PageCache, FlusherDaemonRunsPeriodically) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 100);
  cache.SpawnFlusher(/*interval=*/1'000'000, /*min_age=*/0);
  cache.MarkDirty(PageKey{1, 0}, 1000);
  k.RunFor(3'000'000);
  EXPECT_FALSE(cache.IsDirty(PageKey{1, 0}));
  EXPECT_GE(cache.writebacks(), 1u);
}

TEST(PageCache, DropCleanKeepsDirty) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 100);
  cache.MarkValid(PageKey{1, 0}, 1000);
  cache.MarkDirty(PageKey{1, 1}, 1008);
  cache.DropClean();
  EXPECT_FALSE(cache.Contains(PageKey{1, 0}));
  EXPECT_TRUE(cache.IsDirty(PageKey{1, 1}));
}

// Pages dirtied in shuffled order across three inodes are written back in
// (inode, page) order; a FIFO disk completes them in submit order.
TEST(PageCache, FlushWritesBackInInodeThenPageOrder) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 100);
  std::vector<std::uint64_t> written;
  disk.SetRequestObserver([&written](const osim::DiskRequestInfo& info) {
    written.push_back(info.lba);
  });
  const auto lba_of = [](const PageKey& key) {
    return static_cast<std::uint64_t>(key.inode) * 100'000 +
           key.page * kBlocksPerPage;
  };
  // Inodes and pages both out of order.
  std::vector<PageKey> shuffled;
  shuffled.reserve(12);
  for (const int inode : {7, 0, 2}) {
    for (const std::uint64_t page : {3, 0, 9, 1}) {
      shuffled.push_back(PageKey{inode, page});
    }
  }
  for (const PageKey& key : shuffled) {
    cache.MarkDirty(key, lba_of(key));
  }
  EXPECT_EQ(cache.FlushOlderThan(0), 12);
  k.RunFor(osim::Cycles{1} << 36);
  std::vector<PageKey> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint64_t> expected;
  expected.reserve(sorted.size());
  for (const PageKey& key : sorted) {
    expected.push_back(lba_of(key));
  }
  EXPECT_EQ(written, expected);
}

TEST(PageCache, DropCleanForInodeKeepsOtherInodesPages) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 100);
  cache.MarkValid(PageKey{1, 0}, 1'000);
  cache.MarkValid(PageKey{1, 1}, 1'008);
  cache.MarkValid(PageKey{2, 0}, 2'000);
  cache.MarkDirty(PageKey{2, 1}, 2'008);
  cache.MarkValid(PageKey{3, 4}, 3'032);
  cache.DropCleanForInode(2);
  EXPECT_EQ(cache.resident_pages(), 4u);
  EXPECT_FALSE(cache.Contains(PageKey{2, 0}));
  EXPECT_TRUE(cache.IsDirty(PageKey{2, 1}));
  EXPECT_TRUE(cache.Contains(PageKey{1, 0}));
  EXPECT_TRUE(cache.Contains(PageKey{1, 1}));
  EXPECT_TRUE(cache.Contains(PageKey{3, 4}));
}

}  // namespace
}  // namespace osfs
