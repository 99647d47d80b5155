// The discrete-event engine driving the simulated OS.
//
// Time is measured in CPU cycles of the simulated machine (1.7 GHz by
// default, matching the paper's hardware).  Events at equal timestamps run
// in insertion order, which keeps the simulation deterministic.
//
// The scheduler is a monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan,
// JACM 1990).  Simulated time never runs backwards, so every queued event
// is at or after `last_`, the timestamp of the most recent extraction.  An
// event goes into FIFO bucket bit_width(when ^ last_) of 65: bucket 0 holds
// events at `last_` itself, bucket i those whose highest bit differing from
// `last_` is bit i-1.  When bucket 0 drains, the lowest non-empty bucket's
// minimum becomes the new `last_` and that bucket's events are
// redistributed into the buckets below it, all empty at that moment.  So
// each event moves at most 64 times in its life, each bucket keeps its
// events in insertion order, and events at one timestamp always share a
// bucket: ties leave in insertion order with no sequence number, exactly
// the order of the std::priority_queue comparator (ascending `when`, then
// insertion) that the engine has always had.
//
// It replaced a calendar queue that a profile of the scale_1m workload
// caught degenerating: with at most 127 events pending the calendar never
// grew past 64 buckets, and 99.2% of extractions popped from buckets that
// had flipped to binary-heap mode, sifting 48-byte events on every step
// (43% of host time in the event queue).
//
// TryAdvance(when) lets a caller skip an event it would otherwise queue:
// if nothing queued is due at or before `when`, the event it stands for
// would be the next to run, so the caller moves the clock and does the
// work in place.  The kernel ends CPU bursts this way (Figure 3's two
// processes on one CPU queue almost nothing else).  The test is O(1)
// and may refuse when nothing is actually due, which only costs the
// caller an event: it refuses while bucket 0 holds an unrun event (due at
// `last_`, no later than now), and when `when` reaches the floor of the
// lowest occupied bucket -- the least timestamp that bucket can hold,
// `last_`'s bits above bit b-1 with bit b-1 set -- without scanning the
// bucket for its true minimum.  Refusing at equality keeps FIFO ties: an
// event due exactly at `when` was queued first and runs first.  It also
// refuses past the bound of a running RunUntil, which must stop there.
// It moves `now_` only, so `last_` stays a valid radix base.

#ifndef OSPROF_SRC_SIM_EVENT_QUEUE_H_
#define OSPROF_SRC_SIM_EVENT_QUEUE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/core/clock.h"

namespace osim {

using osprof::Cycles;

class EventQueue {
 public:
  using Action = std::function<void()>;

  Cycles now() const { return now_; }

  // Schedules `action` to run at absolute time `when` (>= now).
  void At(Cycles when, Action action);

  // Schedules `action` to run `delay` cycles from now.
  void After(Cycles delay, Action action) { At(now_ + delay, std::move(action)); }

  // Schedules `action` at the current time, after already-queued
  // same-timestamp events.
  void Now(Action action) { At(now_, std::move(action)); }

  // Moves the clock to `when` (>= now) and returns true when no queued
  // event is due at or before `when` and `when` is within the bound of a
  // running RunUntil; otherwise changes nothing and returns false.  O(1);
  // see the header comment for when it refuses.
  bool TryAdvance(Cycles when) {
    if (when < now_) {
      throw std::logic_error("EventQueue: advancing into the past");
    }
    if (when > bound_ || !buckets_[0].empty()) {
      return false;
    }
    if (occupied_ != 0) {
      // Bucket low+1's floor; low <= 63, and bit low of last_ is clear.
      const int low = std::countr_zero(occupied_);
      if (when >= ((last_ >> low) | 1) << low) {
        return false;
      }
    }
    now_ = when;
    return true;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  // Runs the next event, advancing time.  Returns false if none remain.
  bool Step();

  // Runs events until the queue is empty or time would exceed `until`.
  // Returns the number of events executed.  While it runs, TryAdvance
  // stays at or below `until`; Step and RunAll leave it unbounded.
  std::uint64_t RunUntil(Cycles until);

  // Runs events until the queue drains.
  std::uint64_t RunAll();

  // Approximate heap footprint: the buckets' arrays (std::function
  // targets are counted at their inline size).
  std::size_t ApproxBytes() const {
    std::size_t bytes = 0;
    for (const auto& bucket : buckets_) {
      bytes += bucket.capacity() * sizeof(Event);
    }
    return bytes;
  }

 private:
  struct Event {
    Cycles when;
    Action action;
  };

  // The lowest non-empty bucket above 0 and its earliest timestamp,
  // leaving `last_` where it is.  Requires bucket 0 empty and size_ > 0.
  std::pair<int, Cycles> Lowest() const;
  // Makes `min`, the earliest timestamp of bucket `b`, the new `last_` and
  // redistributes bucket `b` below it, so bucket 0 is non-empty.
  void Redistribute(int b, Cycles min);
  // Runs the head of bucket 0.
  void Pop();

  Cycles now_ = 0;
  // The radix base: the timestamp of the last extraction, never above
  // now_ so that every event At() accepts lands at or above it.
  Cycles last_ = 0;
  // The running RunUntil's `until`, the most TryAdvance may move now_ to.
  Cycles bound_ = ~Cycles{0};
  std::size_t size_ = 0;
  // Bit i-1 set iff bucket i (1..64) is non-empty.
  std::uint64_t occupied_ = 0;
  // Next event to run in bucket 0, which is consumed from the front while
  // actions append to it; the bucket is cleared when it drains.
  std::size_t head_ = 0;
  std::array<std::vector<Event>, 65> buckets_;
};

}  // namespace osim

#endif  // OSPROF_SRC_SIM_EVENT_QUEUE_H_
