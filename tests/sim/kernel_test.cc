#include "src/sim/kernel.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/core/histogram.h"
#include "src/sim/sync.h"

namespace osim {
namespace {

KernelConfig QuietConfig() {
  // No timer interrupts, free context switches: exact time arithmetic.
  KernelConfig cfg;
  cfg.num_cpus = 1;
  cfg.context_switch_cost = 0;
  cfg.timer_tick_period = 0;
  cfg.quantum = 1'000'000;
  return cfg;
}

Task<void> BurnCpu(Kernel& k, Cycles cycles) { co_await k.Cpu(cycles); }

TEST(Kernel, SingleBurstAdvancesTimeExactly) {
  Kernel k(QuietConfig());
  k.Spawn("t", BurnCpu(k, 500));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(k.now(), 500u);
  EXPECT_EQ(k.threads()[0]->cpu_time(), 500u);
  EXPECT_EQ(k.threads()[0]->state(), ThreadState::kFinished);
}

TEST(Kernel, ContextSwitchCostDelaysFirstDispatch) {
  KernelConfig cfg = QuietConfig();
  cfg.context_switch_cost = 100;
  Kernel k(cfg);
  k.Spawn("t", BurnCpu(k, 500));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(k.now(), 600u);
}

TEST(Kernel, TwoCpusRunThreadsInParallel) {
  KernelConfig cfg = QuietConfig();
  cfg.num_cpus = 2;
  Kernel k(cfg);
  k.Spawn("a", BurnCpu(k, 1000));
  k.Spawn("b", BurnCpu(k, 1000));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(k.now(), 1000u);  // Not 2000: true parallelism.
}

TEST(Kernel, OneCpuSerializesThreads) {
  Kernel k(QuietConfig());
  k.Spawn("a", BurnCpu(k, 1000));
  k.Spawn("b", BurnCpu(k, 1000));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(k.now(), 2000u);
}

Task<void> UserLoop(Kernel& k, int iterations, Cycles per_iter) {
  for (int i = 0; i < iterations; ++i) {
    co_await k.CpuUser(per_iter);
  }
}

TEST(Kernel, QuantumRoundRobinsCpuBoundThreads) {
  KernelConfig cfg = QuietConfig();
  cfg.quantum = 1000;
  Kernel k(cfg);
  SimThread* a = k.Spawn("a", UserLoop(k, 100, 100));
  SimThread* b = k.Spawn("b", UserLoop(k, 100, 100));
  k.RunUntilThreadsFinish();
  // Both threads get preempted repeatedly: 10k cycles each in 1k quanta.
  EXPECT_GT(a->forced_preemptions(), 5u);
  EXPECT_GT(b->forced_preemptions(), 5u);
  EXPECT_EQ(k.now(), 20'000u);
}

Task<void> OneKernelBurst(Kernel& k, Cycles user_before, Cycles kernel_burst) {
  co_await k.CpuUser(user_before);
  co_await k.Cpu(kernel_burst);
}

TEST(Kernel, KernelPreemptionConfigGatesForcedPreemptionInKernelMode) {
  for (const bool preemptive : {true, false}) {
    KernelConfig cfg = QuietConfig();
    cfg.quantum = 1000;
    cfg.kernel_preemption = preemptive;
    Kernel k(cfg);
    // Thread a: long kernel burst that exceeds the quantum.
    SimThread* a = k.Spawn("a", OneKernelBurst(k, 0, 10'000));
    // Thread b: competitor that keeps the run queue non-empty.
    k.Spawn("b", UserLoop(k, 20, 500));
    k.RunUntilThreadsFinish();
    if (preemptive) {
      EXPECT_GT(a->forced_preemptions(), 0u) << "preemptive kernel";
    } else {
      EXPECT_EQ(a->forced_preemptions(), 0u) << "non-preemptive kernel";
    }
  }
}

TEST(Kernel, NoPreemptionWhenRunQueueEmpty) {
  KernelConfig cfg = QuietConfig();
  cfg.quantum = 100;
  Kernel k(cfg);
  SimThread* a = k.Spawn("a", BurnCpu(k, 100'000));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(a->forced_preemptions(), 0u);
  EXPECT_EQ(k.now(), 100'000u);
}

TEST(Kernel, TimerInterruptsStretchWallClock) {
  KernelConfig cfg = QuietConfig();
  cfg.timer_tick_period = 1000;
  cfg.timer_irq_cost = 50;
  Kernel k(cfg);
  k.Spawn("t", BurnCpu(k, 10'000));
  k.RunUntilThreadsFinish();
  // 10 ticks land inside the burst (at 1000, 2000, ... 10000); the last
  // one may or may not be inside depending on stretching; allow 10-11.
  EXPECT_GE(k.now(), 10'000u + 10 * 50u);
  EXPECT_LE(k.now(), 10'000u + 11 * 50u);
  EXPECT_GE(k.timer_interrupts_delivered(), 10u);
  // CPU-time accounting excludes interrupt service time.
  EXPECT_EQ(k.threads()[0]->cpu_time(), 10'000u);
}

Task<void> SleepThenBurn(Kernel& k, Cycles sleep, Cycles burn) {
  co_await k.Sleep(sleep);
  co_await k.Cpu(burn);
}

TEST(Kernel, SleepBlocksWithoutConsumingCpu) {
  Kernel k(QuietConfig());
  k.Spawn("sleeper", SleepThenBurn(k, 10'000, 100));
  k.Spawn("worker", BurnCpu(k, 5'000));
  k.RunUntilThreadsFinish();
  // The worker runs during the sleeper's sleep; total = 10'000 + 100.
  EXPECT_EQ(k.now(), 10'100u);
  EXPECT_EQ(k.threads()[0]->cpu_time(), 100u);
}

Task<void> YieldingLoop(Kernel& k, std::vector<int>* log, int id, int n) {
  for (int i = 0; i < n; ++i) {
    log->push_back(id);
    co_await k.CpuUser(10);
    co_await k.Yield();
  }
}

TEST(Kernel, YieldAlternatesThreads) {
  Kernel k(QuietConfig());
  std::vector<int> log;
  k.Spawn("a", YieldingLoop(k, &log, 1, 3));
  k.Spawn("b", YieldingLoop(k, &log, 2, 3));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 1, 2, 1, 2}));
  EXPECT_EQ(k.threads()[0]->voluntary_switches(), 3u);
}

Task<void> RecordTsc(Kernel& k, std::vector<Cycles>* out) {
  out->push_back(k.ReadTsc());
  co_await k.Cpu(100);
  out->push_back(k.ReadTsc());
}

TEST(Kernel, TscSkewIsPerCpu) {
  KernelConfig cfg = QuietConfig();
  cfg.num_cpus = 2;
  cfg.tsc_skew = {0, 34};
  Kernel k(cfg);
  std::vector<Cycles> a;
  std::vector<Cycles> b;
  k.Spawn("a", RecordTsc(k, &a));  // Lands on CPU 0.
  k.Spawn("b", RecordTsc(k, &b));  // Lands on CPU 1.
  k.RunUntilThreadsFinish();
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(a[0], 0u);
  EXPECT_EQ(b[0], 34u);  // Skewed counter.
  EXPECT_EQ(a[1] - a[0], 100u);
  EXPECT_EQ(b[1] - b[0], 100u);  // Skew cancels when staying on one CPU.
}

Task<void> WaitsForever(Kernel& k) {
  WaitQueue never(&k);
  co_await never.Wait();
}

TEST(Kernel, DeadlockIsDetected) {
  Kernel k(QuietConfig());
  k.Spawn("stuck", WaitsForever(k));
  EXPECT_THROW(k.RunUntilThreadsFinish(), std::logic_error);
}

Task<void> ThrowingThread(Kernel& k) {
  co_await k.Cpu(10);
  throw std::runtime_error("scenario bug");
}

TEST(Kernel, ThreadExceptionsPropagateToDriver) {
  Kernel k(QuietConfig());
  k.Spawn("bad", ThrowingThread(k));
  EXPECT_THROW(k.RunUntilThreadsFinish(), std::runtime_error);
}

TEST(Kernel, RunForAdvancesIdleTime) {
  Kernel k(QuietConfig());
  k.RunFor(12'345);
  EXPECT_EQ(k.now(), 12'345u);
}

TEST(Kernel, ValidatesConfig) {
  KernelConfig cfg;
  cfg.num_cpus = 0;
  EXPECT_THROW(Kernel{cfg}, std::invalid_argument);
  KernelConfig cfg2;
  cfg2.quantum = 0;
  EXPECT_THROW(Kernel{cfg2}, std::invalid_argument);
}

Task<void> ManyBursts(Kernel& k, int bursts, Cycles each) {
  for (int i = 0; i < bursts; ++i) {
    co_await k.Cpu(each);
  }
}

// With nothing else queued, every burst ends inline: the only event is
// the first switch onto the CPU.
TEST(Kernel, BurstsWithNothingQueuedEndInline) {
  Kernel k(QuietConfig());
  k.Spawn("t", ManyBursts(k, 1'000, 100));
  EXPECT_EQ(k.events().RunAll(), 1u);
  EXPECT_EQ(k.now(), 100'000u);
  EXPECT_EQ(k.threads()[0]->cpu_time(), 100'000u);
  EXPECT_EQ(k.threads()[0]->state(), ThreadState::kFinished);
}

Task<void> BurnThenMark(Kernel& k, Cycles cycles, std::vector<int>* marks) {
  co_await k.Cpu(cycles);
  marks->push_back(2);
}

// A kernel-context event due exactly when a burst ends was queued first,
// so it runs first.  512 is the floor of its radix bucket, the case an
// off-by-one in TryAdvance's floor test would let through.
TEST(Kernel, KernelEventDueAtABurstsEndRunsFirst) {
  Kernel k(QuietConfig());
  std::vector<int> marks;
  Cycles event_time = 0;
  k.events().At(512, [&] {
    marks.push_back(1);
    event_time = k.now();
  });
  k.Spawn("t", BurnThenMark(k, 512, &marks));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(marks, (std::vector<int>{1, 2}));
  EXPECT_EQ(event_time, 512u);
  EXPECT_EQ(k.now(), 512u);
}

Task<void> RecordDispatch(Kernel& k, Cycles* at, int* cpu) {
  *at = k.now();
  *cpu = k.current()->cpu();
  co_return;
}

Task<void> BurstThenSpawnThenSleep(Kernel& k, Cycles* at, Cycles* b_at,
                                   int* b_cpu) {
  *at = k.now();
  co_await k.Cpu(100);
  k.Spawn("b", RecordDispatch(k, b_at, b_cpu));
  co_await k.Sleep(1'000'000);
}

// A's wakeup begins a switch on both idle CPUs, completed by one event.
// While CPU 1's switch is still to complete in it, A's 100-cycle burst on
// CPU 0 must not end inline: with one event per CPU, CPU 1 found the run
// queue empty and went idle first, so B, spawned at the burst's end,
// switches onto CPU 1 a full switch later.
TEST(Kernel, BurstInASwitchBatchWaitsForTheBatchsOtherCpus) {
  KernelConfig cfg = QuietConfig();
  cfg.num_cpus = 2;
  cfg.context_switch_cost = 9'520;
  Kernel k(cfg);
  Cycles a_at = 0;
  Cycles b_at = 0;
  int b_cpu = -1;
  k.Spawn("a", BurstThenSpawnThenSleep(k, &a_at, &b_at, &b_cpu));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(a_at, 9'520u);
  EXPECT_EQ(b_cpu, 1);
  EXPECT_EQ(b_at, a_at + 100 + 9'520);
}

// RunUntil stops inside a burst even when nothing else is queued, and
// picking the run up again ends where one uninterrupted run does.
TEST(Kernel, RunUntilStopsInsideABurst) {
  Kernel whole(QuietConfig());
  whole.Spawn("t", ManyBursts(whole, 10, 1'000));
  whole.RunUntilThreadsFinish();

  Kernel k(QuietConfig());
  SimThread* t = k.Spawn("t", ManyBursts(k, 10, 1'000));
  k.RunUntil(4'500);
  EXPECT_EQ(k.now(), 4'500u);
  EXPECT_EQ(t->state(), ThreadState::kOnBurst);
  EXPECT_EQ(t->cpu_time(), 4'000u);
  k.RunUntilThreadsFinish();
  EXPECT_EQ(k.now(), whole.now());
  EXPECT_EQ(t->cpu_time(), whole.threads()[0]->cpu_time());
  EXPECT_EQ(k.now(), 10'000u);
}

Task<void> NestedBurst(Kernel& k) { co_await k.Cpu(1); }

Task<void> ManyNestedBursts(Kernel& k, int bursts) {
  for (int i = 0; i < bursts; ++i) {
    co_await NestedBurst(k);
  }
}

// A task starts and returns to its caller by symmetric transfer, which a
// build without tail calls (the sanitizer presets) makes a nested native
// call.  A long run of inline burst ends must still unwind the stack now
// and then rather than overflow it.
TEST(Kernel, LongInlineRunsOfNestedTasksKeepTheStackBounded) {
  Kernel k(QuietConfig());
  k.Spawn("t", ManyNestedBursts(k, 200'000));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(k.now(), 200'000u);
  EXPECT_EQ(k.threads()[0]->cpu_time(), 200'000u);
}

// Paper Figure 3 in miniature: preempted zero-work requests surface near
// bucket log2(quantum).
Task<void> ZeroByteReadLoop(Kernel& k, osprof::Histogram* hist, int requests,
                            Cycles user_time, Cycles syscall_time) {
  for (int i = 0; i < requests; ++i) {
    co_await k.CpuUser(user_time);
    const Cycles start = k.ReadTsc();
    co_await k.Cpu(syscall_time);
    hist->Add(k.ReadTsc() - start);
  }
}

TEST(Kernel, PreemptedRequestsLandNearQuantumBucket) {
  KernelConfig cfg = QuietConfig();
  cfg.quantum = Cycles{1} << 16;
  cfg.kernel_preemption = true;
  Kernel k(cfg);
  osprof::Histogram h1(1);
  osprof::Histogram h2(1);
  k.Spawn("p1", ZeroByteReadLoop(k, &h1, 3000, 100, 100));
  k.Spawn("p2", ZeroByteReadLoop(k, &h2, 3000, 100, 100));
  k.RunUntilThreadsFinish();
  EXPECT_GT(k.total_forced_preemptions(), 0u);
  // Some requests must have been hit and carry ~quantum latency.
  std::uint64_t right_tail = 0;
  for (int b = 15; b <= 18; ++b) {
    right_tail += h1.bucket(b) + h2.bucket(b);
  }
  EXPECT_GT(right_tail, 0u);
}

}  // namespace
}  // namespace osim
