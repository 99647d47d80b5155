// Million-task arena-growth tests (the scale tentpole's substrate claims):
//
//  * RequestContext's frame pool grows past 10^6 simultaneously open
//    spans without invalidating anything -- handles are pool indices, so
//    the data read back after every reallocation must be exact.
//  * The kernel sustains over 10^6 concurrently live tasks: spawn them
//    all, verify the early tasks' identities survived the arena growth,
//    then drain to completion with reaping on.
//
// These run minutes-scale memory footprints (hundreds of MB), so they
// live in the `slow` ctest label, excluded from the quick PR tier.

#include <gtest/gtest.h>

#include "src/core/layered.h"
#include "src/core/op_table.h"
#include "src/sim/kernel.h"
#include "src/sim/request_context.h"

namespace osim {
namespace {

constexpr int kMillion = 1'000'000;

TEST(ScaleArena, RequestContextGrowsPastMillionLiveFramesIntact) {
  RequestContext context;
  osprof::OpTable ops;
  SpanOwner owner;
  owner.ops = &ops;

  // A deep stack of distinct frames across many simulated threads: 1024
  // threads x 1024 nested spans each, entry times encoding (tid, depth).
  constexpr int kThreads = 1024;
  constexpr int kDepth = 1024;  // 1024 * 1024 > 10^6 live frames.
  for (int depth = 0; depth < kDepth; ++depth) {
    for (int tid = 0; tid < kThreads; ++tid) {
      const auto stamp =
          static_cast<Cycles>(tid) * kDepth + static_cast<Cycles>(depth);
      context.Push(tid, &owner, osprof::OpId{0}, stamp);
    }
  }
  ASSERT_GE(context.pool_frames(), static_cast<std::size_t>(kMillion));

  // Pop everything back in LIFO order per thread.  Every duration is
  // computed from the frame's stored entry stamp: exact results prove the
  // pool's many reallocations invalidated no frame (handles are indices,
  // not pointers).
  const auto now = static_cast<Cycles>(kThreads) * kDepth;
  for (int depth = kDepth - 1; depth >= 0; --depth) {
    for (int tid = 0; tid < kThreads; ++tid) {
      const auto stamp =
          static_cast<Cycles>(tid) * kDepth + static_cast<Cycles>(depth);
      const RequestContext::PopResult r = context.Pop(tid, now);
      ASSERT_EQ(r.duration, now - stamp)
          << "frame (tid " << tid << ", depth " << depth
          << ") corrupted by pool growth";
    }
  }
  // The pool holds the high-water mark, reusable for the next run.
  EXPECT_GE(context.pool_frames(), static_cast<std::size_t>(kMillion));
}

TEST(ScaleArena, KernelSustainsMillionLiveTasks) {
  KernelConfig cfg;
  cfg.num_cpus = 8;
  cfg.context_switch_cost = 0;
  cfg.timer_tick_period = 0;
  cfg.reap_finished = true;
  Kernel kernel(cfg);

  // Every task parks immediately for a long simulated sleep, so the whole
  // population is concurrently live before anyone finishes.  Wakeups are
  // staggered, as an open-loop workload's timers are, so the drain takes
  // a million distinct timestamps through the event queue's buckets; the
  // one-timestamp pileup is EventQueue.MillionSameTimestampEventsExtract-
  // Linearly's case.
  constexpr int kTasks = kMillion + 50'000;
  const auto body = [](Kernel* k, Cycles nap) -> Task<void> {
    co_await k->Sleep(nap);
  };
  SimThread* first = nullptr;
  for (int i = 0; i < kTasks; ++i) {
    SimThread* t = kernel.Spawn(
        "s", body(&kernel, 1'000'000'000 + static_cast<Cycles>(i) * 137));
    if (i == 0) {
      first = t;
    }
  }
  // Run up to (but not past) the mass wakeup: all tasks parked, all live.
  kernel.RunFor(1'000'000);
  EXPECT_EQ(kernel.live_threads(), kTasks);
  // The first task's identity survived a million subsequent spawns (the
  // thread table grew by orders of magnitude around it).
  ASSERT_EQ(kernel.threads().size(), static_cast<std::size_t>(kTasks));
  EXPECT_EQ(kernel.threads()[0].get(), first);
  EXPECT_EQ(first->id(), 0);

  const KernelMemoryStats at_peak = kernel.MemoryStats();
  EXPECT_EQ(at_peak.live_threads, kTasks);
  EXPECT_GE(at_peak.events_pending, static_cast<std::size_t>(kTasks));
  EXPECT_GT(at_peak.TotalBytes(), 0u);

  // Drain: everyone wakes, runs to completion, and is reaped.
  kernel.RunUntilThreadsFinish();
  EXPECT_EQ(kernel.live_threads(), 0);
  EXPECT_EQ(kernel.reaped_threads(), static_cast<std::uint64_t>(kTasks));
  // The run queue absorbed the mass wakeup in chunks, not one flat array.
  EXPECT_GE(kernel.MemoryStats().run_queue_peak_depth, 1u);
}

}  // namespace
}  // namespace osim
