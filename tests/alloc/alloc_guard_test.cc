// Allocation guard: the hot paths that scheduling, waiting, page-cache hits,
// disk-cache updates and path lookups run make no heap allocation once
// warm.
//
// This binary replaces the global operator new with a counting one, so it
// is its own executable: the count covers every allocation in the process,
// libstdc++'s included.  Each test warms its path up first (coroutine
// frames come from FrameArena slabs, the event queue and run queue keep
// their high-water storage), then asserts that the measured window makes
// zero operator new calls.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "src/fs/ext2fs.h"
#include "src/fs/page_cache.h"
#include "src/sim/disk.h"
#include "src/sim/kernel.h"
#include "src/sim/sync.h"

namespace {

// Counting is single-threaded: only the test body arms it.
bool g_counting = false;
long g_new_calls = 0;

void* CountedAlloc(std::size_t bytes) {
  if (g_counting) {
    ++g_new_calls;
  }
  void* p = std::malloc(bytes == 0 ? 1 : bytes);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAllocNothrow(std::size_t bytes) noexcept {
  if (g_counting) {
    ++g_new_calls;
  }
  return std::malloc(bytes == 0 ? 1 : bytes);
}

}  // namespace

void* operator new(std::size_t bytes) { return CountedAlloc(bytes); }
void* operator new[](std::size_t bytes) { return CountedAlloc(bytes); }
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  return CountedAllocNothrow(bytes);
}
void* operator new[](std::size_t bytes, const std::nothrow_t&) noexcept {
  return CountedAllocNothrow(bytes);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using osim::Cycles;
using osim::Kernel;
using osim::KernelConfig;
using osim::Task;

// Counts the operator new calls `body` makes.
template <typename F>
long NewCallsIn(F&& body) {
  g_new_calls = 0;
  g_counting = true;
  body();
  g_counting = false;
  return g_new_calls;
}

// The event queue allocates a radix bucket's array the first time an event
// lands in it, and which bucket an event lands in depends on the highest
// power of two its delay crosses.  Warming up to 2^21 cycles uses every
// bucket that a window of under 2^19 cycles after it can use.
constexpr Cycles kWarmUp = Cycles{1} << 21;

KernelConfig TwoCpus() {
  KernelConfig cfg;
  cfg.num_cpus = 2;
  cfg.context_switch_cost = 0;
  cfg.timer_tick_period = 0;
  cfg.quantum = Cycles{1} << 40;
  return cfg;
}

TEST(AllocGuard, CountingOperatorNewSeesAllocations) {
  // The guard itself: a heap allocation in the window is counted.
  const long calls = NewCallsIn([] {
    auto* s = new std::string(64, 'x');
    delete s;
  });
  EXPECT_GE(calls, 2);
}

TEST(AllocGuard, ConstructingPrimitivesAllocatesNothing) {
  Kernel k(TwoCpus());
  const long calls = NewCallsIn([&k] {
    for (int i = 0; i < 100; ++i) {
      osim::SimSemaphore sem(&k, 1);
      osim::SimSpinlock lock(&k);
      osim::WaitQueue queue(&k, osprof::kLayerDriver);
    }
  });
  EXPECT_EQ(calls, 0);
}

Task<void> Contender(Kernel& k, osim::SimSemaphore& sem,
                     std::uint64_t* rounds) {
  while (true) {
    co_await sem.Acquire();
    co_await k.Cpu(100);
    sem.Release();
    ++*rounds;
    co_await k.Cpu(50);
  }
}

TEST(AllocGuard, ContendedSemaphoreRoundsAllocateNothing) {
  Kernel k(TwoCpus());
  osim::SimSemaphore sem(&k, 1, "contended");
  std::uint64_t rounds = 0;
  k.Spawn("a", Contender(k, sem, &rounds));
  k.Spawn("b", Contender(k, sem, &rounds));
  k.RunUntil(kWarmUp);
  const std::uint64_t before = rounds;
  const std::uint64_t contended_before = sem.contended_acquisitions();
  const long calls = NewCallsIn([&k] { k.RunFor(500'000); });
  EXPECT_GE(rounds - before, 1'000u);
  EXPECT_GE(sem.contended_acquisitions() - contended_before, 1'000u);
  EXPECT_EQ(calls, 0);
}

Task<void> Sleeper(osim::WaitQueue& queue, std::uint64_t* wakeups) {
  while (true) {
    co_await queue.Wait();
    ++*wakeups;
  }
}

Task<void> Waker(Kernel& k, osim::WaitQueue& queue) {
  while (true) {
    co_await k.Cpu(100);
    queue.WakeAll();
  }
}

TEST(AllocGuard, WaitQueueRoundsAllocateNothing) {
  Kernel k(TwoCpus());
  osim::WaitQueue queue(&k, osprof::kLayerDriver);
  std::uint64_t wakeups = 0;
  k.Spawn("sleeper", Sleeper(queue, &wakeups));
  k.Spawn("waker", Waker(k, queue));
  k.RunUntil(kWarmUp);
  const std::uint64_t before = wakeups;
  const long calls = NewCallsIn([&k] { k.RunFor(200'000); });
  EXPECT_GE(wakeups - before, 1'000u);
  EXPECT_EQ(calls, 0);
}

Task<void> Napper(Kernel& k, Cycles burst, Cycles nap,
                  std::uint64_t* rounds) {
  while (true) {
    co_await k.Cpu(burst);
    co_await k.Sleep(nap);
    ++*rounds;
  }
}

TEST(AllocGuard, SleepWakeRoundsOnEightCpusAllocateNothing) {
  // 16 threads on 8 CPUs, with the default context-switch cost: wakeups,
  // switch batches (several CPUs go idle together) and queued slice ends
  // (overlapping bursts) all recur in the window.  Warming up to 2^26
  // cycles reaches every radix bucket the 2^24-cycle window after it can.
  KernelConfig cfg;
  cfg.num_cpus = 8;
  cfg.timer_tick_period = 0;
  Kernel k(cfg);
  std::uint64_t rounds = 0;
  for (int i = 0; i < 16; ++i) {
    const auto n = static_cast<Cycles>(i);
    k.Spawn("napper", Napper(k, 1'000 + 37 * n, 5'000 + 101 * n, &rounds));
  }
  k.RunUntil(Cycles{1} << 26);
  const std::uint64_t before = rounds;
  const std::uint64_t switches_before = k.context_switches();
  const long calls = NewCallsIn([&k] { k.RunFor(Cycles{1} << 24); });
  EXPECT_GE(rounds - before, 10'000u);
  EXPECT_GE(k.context_switches() - switches_before, 10'000u);
  EXPECT_EQ(calls, 0);
}

TEST(AllocGuard, PageCacheHitAllocatesNothing) {
  Kernel k(TwoCpus());
  osim::SimDisk disk(&k);
  osfs::PageCache cache(&k, &disk, 16);
  const osfs::PageKey a{1, 0};
  const osfs::PageKey b{1, 1};
  cache.MarkValid(a, 1'000);
  cache.MarkValid(b, 1'008);
  // Alternating hits move a page that is not at the LRU's front.
  const long calls = NewCallsIn([&cache, a, b] {
    for (int i = 0; i < 1'000; ++i) {
      ASSERT_TRUE(cache.Contains(i % 2 == 0 ? a : b));
    }
  });
  EXPECT_EQ(cache.hits(), 1'000u);
  EXPECT_EQ(calls, 0);
}

TEST(AllocGuard, DiskCacheInsertsAndEvictionsAllocateNothing) {
  osim::DiskBlockCache cache(/*num_blocks=*/1'000'000,
                             /*capacity_blocks=*/4'096);
  std::uint64_t lba = 0;
  auto insert_runs = [&cache, &lba](int runs) {
    for (int i = 0; i < runs; ++i) {
      cache.InsertRun(lba, 64);
      lba = (lba + 40) % 999'000;  // Each run overlaps the last.
    }
  };
  insert_runs(2'000);  // Warm-up: allocates the bitmap and the run FIFO.
  const long calls = NewCallsIn([&insert_runs] { insert_runs(10'000); });
  EXPECT_LE(cache.cached_blocks(), 4'096u);
  EXPECT_EQ(calls, 0);
}

TEST(AllocGuard, Ext2ResolvePathAllocatesNothing) {
  Kernel k(TwoCpus());
  osim::SimDisk disk(&k);
  osfs::Ext2SimFs fs(&k, &disk);
  fs.AddDir("/usr");
  fs.AddDir("/usr/src");
  fs.AddDir("/usr/src/linux");
  fs.AddFile("/usr/src/linux/Makefile", 4'096);
  const std::string path = "/usr/src/linux/Makefile";
  const long calls = NewCallsIn([&fs, &path] {
    for (int i = 0; i < 1'000; ++i) {
      ASSERT_TRUE(fs.Exists(path));
    }
  });
  EXPECT_EQ(calls, 0);
}

}  // namespace
