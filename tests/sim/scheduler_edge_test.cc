// Scheduler and synchronization edge cases: fairness, counters, timer
// boundaries, spin/quantum interactions.

#include <gtest/gtest.h>

#include "src/sim/kernel.h"
#include "src/sim/sync.h"

namespace osim {
namespace {

KernelConfig QuietConfig() {
  KernelConfig cfg;
  cfg.num_cpus = 1;
  cfg.context_switch_cost = 0;
  cfg.timer_tick_period = 0;
  cfg.quantum = 1'000'000;
  return cfg;
}

Task<void> UserLoop(Kernel& k, Cycles total, Cycles per_iter) {
  for (Cycles done = 0; done < total; done += per_iter) {
    co_await k.CpuUser(per_iter);
  }
}

TEST(SchedulerEdge, RoundRobinSharesCpuFairly) {
  KernelConfig cfg = QuietConfig();
  cfg.quantum = 10'000;
  Kernel k(cfg);
  SimThread* a = k.Spawn("a", UserLoop(k, 1'000'000, 1'000));
  SimThread* b = k.Spawn("b", UserLoop(k, 1'000'000, 1'000));
  SimThread* c = k.Spawn("c", UserLoop(k, 1'000'000, 1'000));
  // Halfway through, each thread has made roughly equal progress.
  k.RunFor(1'500'000);
  const Cycles ta = a->cpu_time();
  const Cycles tb = b->cpu_time();
  const Cycles tc = c->cpu_time();
  const Cycles mx = std::max({ta, tb, tc});
  const Cycles mn = std::min({ta, tb, tc});
  EXPECT_LE(mx - mn, cfg.quantum * 2);
  k.RunUntilThreadsFinish();
  EXPECT_EQ(k.now(), 3'000'000u);
}

TEST(SchedulerEdge, ContextSwitchCounterTracksDispatches) {
  KernelConfig cfg = QuietConfig();
  cfg.context_switch_cost = 100;
  Kernel k(cfg);
  k.Spawn("a", UserLoop(k, 1'000, 1'000));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(k.context_switches(), 1u);  // One dispatch, no preemption.
  EXPECT_EQ(k.now(), 1'100u);
}

TEST(SchedulerEdge, TimerTickExactlyAtBurstBoundary) {
  KernelConfig cfg = QuietConfig();
  cfg.timer_tick_period = 1'000;
  cfg.timer_irq_cost = 50;
  Kernel k(cfg);
  // A burst that ends exactly on the tick: the tick at t=1000 lands at
  // the burst's last cycle and is charged to it.
  k.Spawn("t", UserLoop(k, 1'000, 1'000));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(k.now(), 1'050u);
  EXPECT_EQ(k.timer_interrupts_delivered(), 1u);
}

TEST(SchedulerEdge, ZeroCycleBurstIsFree) {
  Kernel k(QuietConfig());
  auto body = [](Kernel* kk) -> Task<void> {
    co_await kk->Cpu(0);
    co_await kk->CpuUser(0);
    co_await kk->Cpu(7);
  };
  k.Spawn("t", body(&k));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(k.now(), 7u);
}

Task<void> SpinThenWork(Kernel& k, SimSpinlock& lock, Cycles hold) {
  co_await lock.Lock();
  co_await k.Cpu(hold);
  lock.Unlock();
}

TEST(SchedulerEdge, SpinTimeChargesTheWaitersQuantum) {
  // A thread that spun for most of its quantum gets preempted soon after.
  KernelConfig cfg = QuietConfig();
  cfg.num_cpus = 2;
  cfg.quantum = 10'000;
  Kernel k(cfg);
  SimSpinlock lock(&k);
  SimThread* holder = k.Spawn("holder", SpinThenWork(k, lock, 9'000));
  SimThread* spinner = k.Spawn("spinner", SpinThenWork(k, lock, 100));
  // A third thread competing for the spinner's CPU.
  k.Spawn("compete", UserLoop(k, 30'000, 500));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(spinner->spin_wait_time(), 9'000u);
  EXPECT_GT(holder->cpu_time(), 0u);
}

TEST(SchedulerEdge, ManyThreadsManyCpusAllFinish) {
  KernelConfig cfg = QuietConfig();
  cfg.num_cpus = 8;
  cfg.quantum = 5'000;
  cfg.context_switch_cost = 50;
  Kernel k(cfg);
  for (int i = 0; i < 64; ++i) {
    k.Spawn(std::string("t").append(std::to_string(i)),
            UserLoop(k, 100'000, 777));
  }
  k.RunUntilThreadsFinish();
  for (const auto& t : k.threads()) {
    EXPECT_EQ(t->state(), ThreadState::kFinished);
    EXPECT_GE(t->cpu_time(), 100'000u);
  }
  // 64 threads x 100k cycles over 8 CPUs: at least 800k cycles of wall.
  EXPECT_GE(k.now(), 800'000u);
}

Task<void> SleepSandwich(Kernel& k, Cycles* woke_at) {
  co_await k.Cpu(100);
  co_await k.Sleep(5'000);
  *woke_at = k.now();
  co_await k.Cpu(100);
}

TEST(SchedulerEdge, SleepWakesAtExactDeadlineWhenCpuIdle) {
  Kernel k(QuietConfig());
  Cycles woke_at = 0;
  k.Spawn("s", SleepSandwich(k, &woke_at));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(woke_at, 5'100u);
  EXPECT_EQ(k.now(), 5'200u);
}

class QuantumSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(QuantumSweepTest, TotalCpuTimeIsConservedAcrossQuanta) {
  // Property: the scheduler never loses or invents CPU time, whatever the
  // quantum.
  KernelConfig cfg = QuietConfig();
  cfg.quantum = Cycles{1} << GetParam();
  cfg.context_switch_cost = 0;
  Kernel k(cfg);
  k.Spawn("a", UserLoop(k, 500'000, 313));
  k.Spawn("b", UserLoop(k, 500'000, 711));
  k.RunUntilThreadsFinish();
  Cycles total = 0;
  for (const auto& t : k.threads()) {
    total += t->cpu_time();
  }
  // UserLoop overshoots each target by < one iteration.
  EXPECT_GE(total, 1'000'000u);
  EXPECT_LE(total, 1'002'100u);
  EXPECT_EQ(k.now(), total);  // 1 CPU, no switch cost, no idle gaps.
}

INSTANTIATE_TEST_SUITE_P(Quanta, QuantumSweepTest,
                         ::testing::Values(10, 12, 14, 16, 20, 26));

}  // namespace
}  // namespace osim
