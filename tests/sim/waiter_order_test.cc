// Pins the order in which every waiter list wakes its threads: the
// semaphore's barging wakeup, the spinlock's handoff and the wait queue's
// WakeOne / WakeAll all serve the oldest waiter first, and a thread woken
// from one list can wait on another.  These orders fix the simulated
// schedule, so every golden depends on them.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/kernel.h"
#include "src/sim/sync.h"

namespace osim {
namespace {

// "<prefix><i>", built by appending: GCC 12's -Wrestrict misfires on
// `"literal" + std::to_string(i)` in optimized builds.
std::string Name(const char* prefix, std::uint64_t i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

KernelConfig Config(int cpus) {
  KernelConfig cfg;
  cfg.num_cpus = cpus;
  cfg.context_switch_cost = 0;
  cfg.timer_tick_period = 0;
  cfg.quantum = Cycles{1} << 40;
  return cfg;
}

// Holds the semaphore twice in a row: the second Acquire barges past the
// waiter the first Release woke, which then parks again at the tail.
Task<void> BargingHolder(Kernel& k, SimSemaphore& sem,
                         std::vector<std::string>* log) {
  co_await sem.Acquire();
  log->push_back("H");
  co_await k.Cpu(1'000);
  sem.Release();
  co_await sem.Acquire();
  log->push_back("H");
  co_await k.Cpu(1'000);
  sem.Release();
}

Task<void> LateAcquirer(Kernel& k, SimSemaphore& sem, Cycles arrive,
                        std::string name, std::vector<std::string>* log) {
  co_await k.Sleep(arrive);
  co_await sem.Acquire();
  log->push_back(name);
  co_await k.Cpu(100);
  sem.Release();
}

TEST(WaiterOrder, SemaphoreWakesOldestAndBargedWaiterRequeuesAtTail) {
  Kernel k(Config(8));
  SimSemaphore sem(&k, 1, "i_sem");
  std::vector<std::string> log;
  k.Spawn("holder", BargingHolder(k, sem, &log));
  for (int i = 1; i <= 5; ++i) {
    k.Spawn(Name("w", i), LateAcquirer(k, sem, static_cast<Cycles>(100 * i),
                                       Name("w", i), &log));
  }
  k.RunFor(600);
  EXPECT_EQ(sem.waiters(), 5);
  k.RunUntilThreadsFinish();
  // w1 is woken by the first Release, loses the count to the holder's
  // second Acquire, and parks again behind w5.
  EXPECT_EQ(log, (std::vector<std::string>{"H", "H", "w2", "w3", "w4", "w5",
                                           "w1"}));
  EXPECT_EQ(sem.waiters(), 0);
  EXPECT_EQ(sem.contended_acquisitions(), 5u);
}

Task<void> Spinner(Kernel& k, SimSpinlock& lock, Cycles arrive, Cycles hold,
                   std::string name, std::vector<std::string>* log) {
  co_await k.Sleep(arrive);
  co_await lock.Lock();
  log->push_back(name);
  co_await k.Cpu(hold);
  lock.Unlock();
}

TEST(WaiterOrder, SpinlockHandsOffToOldestSpinner) {
  Kernel k(Config(8));
  SimSpinlock lock(&k, "dcache_lock");
  std::vector<std::string> log;
  k.Spawn("holder", Spinner(k, lock, 0, 1'000, "H", &log));
  const int arrival[] = {0, 2, 4, 1, 3};  // s1..s4 arrive as s3, s1, s4, s2.
  for (int i = 1; i <= 4; ++i) {
    k.Spawn(Name("s", i),
            Spinner(k, lock, static_cast<Cycles>(100 * arrival[i]), 100,
                    Name("s", i), &log));
  }
  k.RunUntilThreadsFinish();
  EXPECT_EQ(log, (std::vector<std::string>{"H", "s3", "s1", "s4", "s2"}));
  EXPECT_EQ(lock.contended_acquisitions(), 4u);
  EXPECT_FALSE(lock.held());
}

Task<void> QueueWaiter(Kernel& k, WaitQueue& queue, Cycles arrive,
                       std::string name, std::vector<std::string>* log) {
  co_await k.Sleep(arrive);
  co_await queue.Wait();
  log->push_back(name);
}

Task<void> WakeOneThenAll(Kernel& k, WaitQueue& queue,
                          std::vector<std::string>* log) {
  co_await k.Sleep(1'000);
  log->push_back("wake_one");
  queue.WakeOne();
  co_await k.Sleep(1'000);
  log->push_back("wake_all");
  queue.WakeAll();
}

TEST(WaiterOrder, WakeOneAndWakeAllFollowArrival) {
  Kernel k(Config(1));
  WaitQueue queue(&k, osprof::kLayerDriver);
  std::vector<std::string> log;
  const int arrival[] = {0, 3, 1, 4, 2};  // t1..t4 arrive as t2, t4, t1, t3.
  for (int i = 1; i <= 4; ++i) {
    k.Spawn(Name("t", i),
            QueueWaiter(k, queue, static_cast<Cycles>(100 * arrival[i]),
                        Name("t", i), &log));
  }
  k.Spawn("waker", WakeOneThenAll(k, queue, &log));
  k.RunFor(1'500);
  EXPECT_EQ(queue.waiters(), 3);
  k.RunUntilThreadsFinish();
  EXPECT_EQ(log, (std::vector<std::string>{"wake_one", "t2", "wake_all", "t4",
                                           "t1", "t3"}));
  EXPECT_EQ(queue.waiters(), 0);
}

// Waits on each queue in turn, logging "<name>@<i>" after the i-th wakeup.
Task<void> ChainWaiter(Kernel& k, std::vector<WaitQueue*> queues,
                       Cycles arrive, std::string name,
                       std::vector<std::string>* log) {
  co_await k.Sleep(arrive);
  for (std::size_t i = 0; i < queues.size(); ++i) {
    co_await queues[i]->Wait();
    log->push_back(name + Name("@", i + 1));
  }
}

Task<void> WakeInTurn(Kernel& k, WaitQueue& q1, WaitQueue& q2,
                      WaitQueue& q3, std::vector<std::string>* log) {
  co_await k.Sleep(1'000);
  q1.WakeAll();  // a and b move on to q2, behind c; d moves on to q3.
  co_await k.Sleep(1'000);
  log->push_back(Name("q2:", static_cast<std::uint64_t>(q2.waiters())));
  q2.WakeOne();
  co_await k.Sleep(1'000);
  q2.WakeAll();
  co_await k.Sleep(1'000);
  q3.WakeOne();
  co_await k.Sleep(1'000);
  log->push_back(Name("q3:", static_cast<std::uint64_t>(q3.waiters())));
}

TEST(WaiterOrder, ThreadWokenFromOneQueueWaitsOnAnother) {
  Kernel k(Config(1));
  WaitQueue q1(&k, osprof::kLayerDriver);
  WaitQueue q2(&k, osprof::kLayerNet);
  WaitQueue q3(&k, osprof::kLayerNet);
  std::vector<std::string> log;
  k.Spawn("a", ChainWaiter(k, {&q1, &q2}, 100, "a", &log));
  k.Spawn("b", ChainWaiter(k, {&q1, &q2}, 200, "b", &log));
  k.Spawn("c", ChainWaiter(k, {&q2}, 0, "c", &log));
  k.Spawn("d", ChainWaiter(k, {&q1, &q3}, 300, "d", &log));
  k.Spawn("waker", WakeInTurn(k, q1, q2, q3, &log));
  k.RunUntilThreadsFinish();
  // b left q1 with d behind it and d left with nobody: a waiter's link is
  // cleared when it is woken, so neither list picks up a stale successor.
  EXPECT_EQ(log, (std::vector<std::string>{"a@1", "b@1", "d@1", "q2:3",
                                           "c@1", "a@2", "b@2", "d@2",
                                           "q3:0"}));
  EXPECT_EQ(q1.waiters(), 0);
  EXPECT_EQ(q2.waiters(), 0);
  EXPECT_EQ(q3.waiters(), 0);
}

}  // namespace
}  // namespace osim
