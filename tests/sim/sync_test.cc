#include "src/sim/sync.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/core/histogram.h"

namespace osim {
namespace {

KernelConfig QuietConfig() {
  KernelConfig cfg;
  cfg.num_cpus = 2;
  cfg.context_switch_cost = 0;
  cfg.timer_tick_period = 0;
  cfg.quantum = 1'000'000'000;
  return cfg;
}

Task<void> CriticalSection(Kernel& k, SimSemaphore& sem, Cycles hold,
                           std::vector<int>* log, int id) {
  co_await sem.Acquire();
  log->push_back(id);
  co_await k.Cpu(hold);
  sem.Release();
}

TEST(SimSemaphore, MutualExclusionSerializesHolders) {
  Kernel k(QuietConfig());
  SimSemaphore sem(&k, 1, "i_sem");
  std::vector<int> log;
  k.Spawn("a", CriticalSection(k, sem, 1000, &log, 1));
  k.Spawn("b", CriticalSection(k, sem, 1000, &log, 2));
  k.Spawn("c", CriticalSection(k, sem, 1000, &log, 3));
  k.RunUntilThreadsFinish();
  // Three 1000-cycle critical sections on 2 CPUs: still serialized.
  EXPECT_EQ(k.now(), 3000u);
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));  // FIFO handoff.
  EXPECT_EQ(sem.acquisitions(), 3u);
  EXPECT_EQ(sem.contended_acquisitions(), 2u);
  EXPECT_EQ(sem.total_wait_time(), 1000u + 2000u);
}

TEST(SimSemaphore, CountAboveOneAdmitsConcurrency) {
  Kernel k(QuietConfig());
  SimSemaphore sem(&k, 2);
  std::vector<int> log;
  k.Spawn("a", CriticalSection(k, sem, 1000, &log, 1));
  k.Spawn("b", CriticalSection(k, sem, 1000, &log, 2));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(k.now(), 1000u);  // Both ran concurrently on the 2 CPUs.
  EXPECT_EQ(sem.contended_acquisitions(), 0u);
}

TEST(SimSemaphore, TryAcquireNeverBlocks) {
  Kernel k(QuietConfig());
  SimSemaphore sem(&k, 1);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
}

TEST(SimSemaphore, WaitTimeChargedToThreadStats) {
  Kernel k(QuietConfig());
  SimSemaphore sem(&k, 1);
  std::vector<int> log;
  SimThread* a = k.Spawn("a", CriticalSection(k, sem, 5000, &log, 1));
  SimThread* b = k.Spawn("b", CriticalSection(k, sem, 0, &log, 2));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(a->sem_wait_time(), 0u);
  EXPECT_EQ(b->sem_wait_time(), 5000u);
}

Task<void> ScopedHolder(Kernel& k, SimSemaphore& sem, Cycles hold) {
  ScopedSemaphore guard(&sem);
  co_await guard.Lock();
  co_await k.Cpu(hold);
  // Released by the guard destructor at coroutine end.
}

TEST(ScopedSemaphore, ReleasesOnScopeExit) {
  Kernel k(QuietConfig());
  SimSemaphore sem(&k, 1);
  std::vector<int> log;
  k.Spawn("a", ScopedHolder(k, sem, 1000));
  k.Spawn("b", CriticalSection(k, sem, 0, &log, 2));
  k.RunUntilThreadsFinish();  // Deadlocks (throws) if the guard leaks.
  EXPECT_EQ(sem.count(), 1);
}

Task<void> SpinUser(Kernel& k, SimSpinlock& lock, Cycles hold) {
  co_await lock.Lock();
  co_await k.Cpu(hold);
  lock.Unlock();
}

TEST(SimSpinlock, ContendedWaiterBurnsCpu) {
  Kernel k(QuietConfig());
  SimSpinlock lock(&k);
  SimThread* a = k.Spawn("a", SpinUser(k, lock, 10'000));
  SimThread* b = k.Spawn("b", SpinUser(k, lock, 100));
  k.RunUntilThreadsFinish();
  // b spun for ~10'000 cycles while a held the lock; spinning burns CPU.
  EXPECT_EQ(b->spin_wait_time(), 10'000u);
  EXPECT_GE(b->cpu_time(), 10'100u);
  EXPECT_EQ(a->spin_wait_time(), 0u);
  EXPECT_EQ(lock.contended_acquisitions(), 1u);
  EXPECT_EQ(lock.total_spin_time(), 10'000u);
  EXPECT_EQ(k.now(), 10'100u);
}

TEST(SimSpinlock, UncontendedLockIsFree) {
  Kernel k(QuietConfig());
  SimSpinlock lock(&k);
  k.Spawn("a", SpinUser(k, lock, 100));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(lock.acquisitions(), 1u);
  EXPECT_EQ(lock.contended_acquisitions(), 0u);
  EXPECT_EQ(k.now(), 100u);
}

TEST(SimSpinlock, UnlockingFreeLockThrows) {
  Kernel k(QuietConfig());
  SimSpinlock lock(&k);
  EXPECT_THROW(lock.Unlock(), std::logic_error);
}

Task<void> FifoSpinners(Kernel& k, SimSpinlock& lock, std::vector<int>* order,
                        int id) {
  co_await k.Cpu(static_cast<Cycles>(id));  // Stagger arrival.
  co_await lock.Lock();
  order->push_back(id);
  co_await k.Cpu(1000);
  lock.Unlock();
}

TEST(SimSpinlock, HandoffIsFifo) {
  KernelConfig cfg = QuietConfig();
  cfg.num_cpus = 4;
  Kernel k(cfg);
  SimSpinlock lock(&k);
  std::vector<int> order;
  for (int id = 1; id <= 4; ++id) {
    k.Spawn(std::string("t").append(std::to_string(id)),
            FifoSpinners(k, lock, &order, id));
  }
  k.RunUntilThreadsFinish();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

Task<void> Consumer(Kernel& k, WaitQueue& wq, const bool& ready, int* observed) {
  while (!ready) {
    co_await wq.Wait();
  }
  *observed = 1;
  co_await k.Cpu(1);
}

Task<void> Producer(Kernel& k, WaitQueue& wq, bool& ready) {
  co_await k.Sleep(5000);
  ready = true;
  wq.WakeAll();
}

TEST(WaitQueue, WakeAllReleasesWaiters) {
  Kernel k(QuietConfig());
  WaitQueue wq(&k);
  bool ready = false;
  int observed = 0;
  k.Spawn("consumer", Consumer(k, wq, ready, &observed));
  k.Spawn("producer", Producer(k, wq, ready));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(observed, 1);
  EXPECT_GE(k.now(), 5000u);
}

TEST(WaitQueue, WakeOneReleasesOneWaiter) {
  KernelConfig cfg = QuietConfig();
  cfg.num_cpus = 4;
  Kernel k(cfg);
  WaitQueue wq(&k);
  // Spawn two waiters that exit after one wait; wake one, then the other,
  // asserting the intermediate state.
  int done = 0;
  auto waiter = [](Kernel& kk, WaitQueue& q, int* d) -> Task<void> {
    co_await q.Wait();
    ++*d;
    co_await kk.Cpu(1);
  };
  k.Spawn("w1", waiter(k, wq, &done));
  k.Spawn("w2", waiter(k, wq, &done));
  k.RunFor(100);
  EXPECT_EQ(wq.waiters(), 2);
  wq.WakeOne();
  k.RunFor(100);
  EXPECT_EQ(done, 1);
  wq.WakeOne();
  k.RunFor(100);
  EXPECT_EQ(done, 2);
}

// The Figure 1 scenario in miniature: concurrent clone-like operations
// contending on a sleeping lock produce a second latency mode.
Task<void> CloneLoop(Kernel& k, SimSemaphore& proc_sem, osprof::Histogram* h,
                     int iterations) {
  for (int i = 0; i < iterations; ++i) {
    const Cycles start = k.ReadTsc();
    co_await k.Cpu(4000);  // Lock-free part of clone.
    co_await proc_sem.Acquire();
    co_await k.Cpu(4000);  // Critical section.
    proc_sem.Release();
    h->Add(k.ReadTsc() - start);
    co_await k.CpuUser(1000);
  }
}

TEST(SimSemaphore, ContentionCreatesSecondLatencyMode) {
  // One process: a single peak at ~8000 cycles (bucket 12).
  {
    Kernel k(QuietConfig());
    SimSemaphore sem(&k, 1);
    osprof::Histogram h(1);
    k.Spawn("p0", CloneLoop(k, sem, &h, 200));
    k.RunUntilThreadsFinish();
    EXPECT_EQ(h.bucket(12), 200u);
    EXPECT_EQ(h.TotalOperations(), 200u);
  }
  // Four processes on two CPUs: a contended mode appears to the right.
  {
    Kernel k(QuietConfig());
    SimSemaphore sem(&k, 1);
    osprof::Histogram h(1);
    for (int p = 0; p < 4; ++p) {
      k.Spawn(std::string("p").append(std::to_string(p)),
              CloneLoop(k, sem, &h, 200));
    }
    k.RunUntilThreadsFinish();
    EXPECT_GT(sem.contended_acquisitions(), 0u);
    std::uint64_t right_of_base = 0;
    for (int b = 13; b < h.num_buckets(); ++b) {
      right_of_base += h.bucket(b);
    }
    EXPECT_GT(right_of_base, 0u);  // The contention mode.
    EXPECT_GT(h.bucket(12), 0u);   // The lock-free mode survives.
  }
}

}  // namespace
}  // namespace osim
