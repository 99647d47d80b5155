#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <vector>

namespace osim {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.At(30, [&] { order.push_back(3); });
  q.At(10, [&] { order.push_back(1); });
  q.At(20, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTimestampRunsInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.At(5, [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, EventsScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  // Each event queues the next through a pointer to this chain, which
  // outlives them all.
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) {
      q.After(10, [&chain] { chain(); });
    }
  };
  q.After(10, [&chain] { chain(); });
  q.RunAll();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, NowSchedulesAfterPendingSameTimeEvents) {
  EventQueue q;
  std::vector<int> order;
  q.At(10, [&] {
    order.push_back(1);
    q.Now([&] { order.push_back(3); });
  });
  q.At(10, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RunUntilStopsAtBoundaryAndAdvancesClock) {
  EventQueue q;
  int fired = 0;
  q.At(10, [&] { ++fired; });
  q.At(100, [&] { ++fired; });
  const std::uint64_t n = q.RunUntil(50);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 50u);
  q.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilIncludesBoundaryEvents) {
  EventQueue q;
  int fired = 0;
  q.At(50, [&] { ++fired; });
  q.RunUntil(50);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, SchedulingIntoThePastThrows) {
  EventQueue q;
  q.At(100, [] {});
  q.RunAll();
  EXPECT_THROW(q.At(50, [] {}), std::logic_error);
}

TEST(EventQueue, TryAdvanceRefusesAnEventDueByWhen) {
  EventQueue q;
  std::vector<int> order;
  // From radix base 0, an event at 64 sits in bucket 7, whose floor -- the
  // least timestamp the bucket can hold -- is 64 itself.
  q.At(64, [&] { order.push_back(1); });
  EXPECT_FALSE(q.TryAdvance(64));
  EXPECT_FALSE(q.TryAdvance(1'000));
  EXPECT_EQ(q.now(), 0u);
  EXPECT_TRUE(q.TryAdvance(63));
  EXPECT_EQ(q.now(), 63u);
  EXPECT_THROW(q.TryAdvance(62), std::logic_error);
  // The advanced clock is where later events are measured from.
  q.Now([&] { order.push_back(0); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(q.now(), 64u);
}

TEST(EventQueue, TryAdvanceRefusesAnUnrunSameTimeEvent) {
  EventQueue q;
  bool advanced = true;
  q.At(10, [&] { advanced = q.TryAdvance(11); });
  q.At(10, [] {});
  q.RunAll();
  EXPECT_FALSE(advanced);
}

TEST(EventQueue, TryAdvanceReachesTheTopBucket) {
  // Bucket 64 holds timestamps with bit 63 set; its floor is 2^63.
  constexpr Cycles kTop = Cycles{1} << 63;
  EventQueue q;
  q.At(kTop, [] {});
  EXPECT_FALSE(q.TryAdvance(kTop));
  EXPECT_TRUE(q.TryAdvance(kTop - 1));
  EXPECT_EQ(q.RunAll(), 1u);
  EXPECT_EQ(q.now(), kTop);
}

TEST(EventQueue, TryAdvanceStaysWithinTheRunUntilBound) {
  EventQueue q;
  bool past_bound = true;
  bool at_bound = false;
  q.At(10, [&] {
    past_bound = q.TryAdvance(51);
    at_bound = q.TryAdvance(50);
  });
  q.RunUntil(50);
  EXPECT_FALSE(past_bound);
  EXPECT_TRUE(at_bound);
  EXPECT_EQ(q.now(), 50u);
  // The bound ends with the RunUntil, even one an action throws out of.
  q.At(60, [] { throw std::runtime_error("action failed"); });
  EXPECT_THROW(q.RunUntil(70), std::runtime_error);
  EXPECT_TRUE(q.TryAdvance(1'000));
}

// The radix heap must be observationally identical to the
// std::priority_queue scheduler the engine started with: ascending
// `when`, ties in ascending insertion order.  A reference model with
// exactly that comparator runs in lockstep over a million randomly seeded
// events -- timestamps drawn across twenty binary orders of magnitude (so
// buckets see dense ties, sparse far-future stretches, and everything
// between), plus follow-up events scheduled mid-run the way simulated
// threads schedule wakeups.  RunUntil(t) calls are interleaved, some with
// `t` just short of the next event (the peek must not move the radix base
// past `t`), each followed by At(t) and At(t + 1), or by TryAdvance to
// just short of, at or past the next event, and then by Now().
// TryAdvance is also tried inside actions, as the kernel does.  Whenever
// it moves the clock to `t`, nothing in the reference is due at or before
// `t`, and `t` is within the running RunUntil's bound.
TEST(EventQueue, MatchesReferencePriorityQueueOnRandomLoad) {
  struct Ref {
    Cycles when;
    std::uint64_t seq;
  };
  struct LaterFirst {
    bool operator()(const Ref& a, const Ref& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  std::priority_queue<Ref, std::vector<Ref>, LaterFirst> ref;

  constexpr int kInitialEvents = 1'000'000;
  constexpr int kFollowUps = 200'000;
  constexpr int kRunUntilCalls = 50'000;

  EventQueue q;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;  // Deterministic LCG.
  const auto next_random = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  std::uint64_t seq = 0;
  std::uint64_t executed = 0;
  std::uint64_t mismatches = 0;
  int follow_ups_left = kFollowUps;
  Cycles bound = ~Cycles{0};
  std::uint64_t advances = 0;
  std::uint64_t bad_advances = 0;
  // Tries to advance to `when`; a granted advance must skip nothing.
  const auto try_advance = [&](Cycles when) {
    if (q.TryAdvance(when)) {
      ++advances;
      if ((!ref.empty() && ref.top().when <= when) || when > bound) {
        ++bad_advances;
      }
    }
  };

  // Enters an event at `when` into the reference and returns the action
  // that checks, when it runs, that it is the reference's minimum.  The
  // action captures `fire`, which reaches the test's state, by pointer.
  std::function<void(Cycles)> schedule;
  std::function<void(Cycles, std::uint64_t)> fire;
  const auto tracked = [&](Cycles when) -> EventQueue::Action {
    const std::uint64_t id = seq++;
    ref.push(Ref{when, id});
    return [&fire, when, id] { fire(when, id); };
  };
  fire = [&](Cycles when, std::uint64_t id) {
    if (ref.empty() || ref.top().when != when || ref.top().seq != id) {
      ++mismatches;
    } else {
      ref.pop();
    }
    ++executed;
    if (id % 7 == 3) {
      try_advance(q.now() + (next_random() & ((1ull << (id % 24)) - 1)));
    }
    if (follow_ups_left > 0 && (id & 3u) == 0) {
      --follow_ups_left;
      // Mixed-magnitude gap, sometimes exactly zero: a same-timestamp
      // follow-up must still run after everything already queued for
      // `now`.
      const Cycles gap =
          (id & 31u) == 0
              ? 0
              : next_random() & ((1ull << (8 + id % 21)) - 1);
      schedule(q.now() + gap);
    }
  };
  schedule = [&](Cycles when) { q.At(when, tracked(when)); };

  // Times come from a random walk of mixed-magnitude gaps: zero gaps
  // make exact ties, small gaps make dense micro-bursts, 2^20-cycle
  // jumps make sparse stretches -- the local-density shape a simulated
  // kernel produces, at every magnitude.  The walk is then inserted in
  // LCG-shuffled order so arrival order and time order are unrelated.
  std::vector<Cycles> times(kInitialEvents);
  Cycles t = 0;
  for (int i = 0; i < kInitialEvents; ++i) {
    t += next_random() & ((Cycles{1} << (i % 21)) - 1);
    times[static_cast<std::size_t>(i)] = t;
  }
  for (std::size_t i = times.size() - 1; i > 0; --i) {
    std::swap(times[i], times[next_random() % (i + 1)]);
  }
  for (const Cycles when : times) {
    schedule(when);
  }

  std::uint64_t bad_stops = 0;
  for (int i = 0; i < kRunUntilCalls && !ref.empty(); ++i) {
    Cycles until = q.now() + (next_random() & ((Cycles{1} << (i % 24)) - 1));
    if (i % 3 == 0 && ref.top().when > q.now()) {
      until = ref.top().when - 1;  // Just short of the next event.
    }
    const Cycles before = q.now();
    bound = until;
    q.RunUntil(until);
    bound = ~Cycles{0};
    if (q.now() != std::max(before, until) ||
        (!ref.empty() && ref.top().when <= until)) {
      ++bad_stops;
    }
    if (i % 4 == 3 && !ref.empty() && ref.top().when > q.now()) {
      // Just short of, at, or past the next event.
      try_advance(ref.top().when - 1 + i % 3);
    } else {
      schedule(until);
      schedule(until + 1);
    }
    q.Now(tracked(q.now()));
  }
  q.RunAll();

  EXPECT_EQ(bad_stops, 0u);
  EXPECT_EQ(bad_advances, 0u);
  EXPECT_GT(advances, 10'000u);
  EXPECT_EQ(executed, seq);
  EXPECT_GE(executed, static_cast<std::uint64_t>(kInitialEvents) + kFollowUps);
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(mismatches, 0u);
}

TEST(EventQueue, MillionSameTimestampEventsExtractLinearly) {
  // A million events on one timestamp share one radix bucket: a single
  // redistribution moves them into bucket 0, which then drains front to
  // back.  So the pileup must extract in linear time, well inside the
  // quick-tier timeout, in exact insertion order, and an event scheduled
  // far after it must still run last.
  constexpr std::uint64_t kEvents = 1'000'000;
  constexpr Cycles kWhen = 123'456;

  EventQueue q;
  std::uint64_t executed = 0;
  std::uint64_t out_of_order = 0;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    q.At(kWhen, [&executed, &out_of_order, i] {
      if (executed != i) {
        ++out_of_order;
      }
      ++executed;
    });
  }
  bool straggler_ran = false;
  q.At(kWhen + (Cycles{1} << 40), [&] {
    straggler_ran = executed == kEvents;
  });
  q.RunAll();

  EXPECT_EQ(executed, kEvents);
  EXPECT_EQ(out_of_order, 0u);
  EXPECT_TRUE(straggler_ran);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.Step());
  q.At(1, [] {});
  EXPECT_TRUE(q.Step());
  EXPECT_FALSE(q.Step());
}

}  // namespace
}  // namespace osim
