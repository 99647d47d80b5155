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
//
// An action may also do several pieces of work due now that would
// otherwise each have been an event of their own, queued back to back
// (the kernel completes one idle-CPU bitmap word's context switches in
// one event).  While it does, a PendingNowScope holds the count of pieces
// still to come, and TryAdvance refuses while that count is non-zero,
// exactly as it refused while those events sat in bucket 0.
//
// An event is its timestamp and an Action: a function pointer plus 24
// bytes of trivially copyable captures, checked at compile time.  So an
// event is trivially copyable, queuing one never allocates, and
// redistribution moves events as plain bytes.  State that does not fit
// (a disk request, a packet's delivery) lives in the object the event
// belongs to, and the event captures a pointer to that object.

#ifndef OSPROF_SRC_SIM_EVENT_QUEUE_H_
#define OSPROF_SRC_SIM_EVENT_QUEUE_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/clock.h"

namespace osim {

using osprof::Cycles;

template <typename Signature>
class InlineCallable;

// A callable held in place: one function pointer and up to kCaptureBytes
// of captures, which must be trivially copyable and trivially
// destructible (pointers, integers, timestamps).  Copying one copies
// bytes; nothing is allocated or destroyed.  A default-constructed or
// null one is empty and must not be called.
template <typename R, typename... Args>
class InlineCallable<R(Args...)> {
 public:
  static constexpr std::size_t kCaptureBytes = 24;

  InlineCallable() = default;
  InlineCallable(std::nullptr_t) {}

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineCallable> &&
             std::is_invocable_r_v<R, F&, Args...>)
  InlineCallable(F f) : call_(&Call<F>) {
    static_assert(sizeof(F) <= kCaptureBytes &&
                      alignof(F) <= alignof(std::uint64_t),
                  "InlineCallable: the captures must fit in 24 bytes at "
                  "8-byte alignment; keep larger state in the object the "
                  "callable belongs to and capture a pointer to it");
    static_assert(std::is_trivially_copyable_v<F> &&
                      std::is_trivially_destructible_v<F>,
                  "InlineCallable: captures must be trivially copyable and "
                  "trivially destructible (pointers, references, integers), "
                  "so the callable is copied as bytes and never destroyed");
    ::new (static_cast<void*>(captures_)) F(f);
  }

  explicit operator bool() const { return call_ != nullptr; }

  R operator()(Args... args) {
    return call_(captures_, std::forward<Args>(args)...);
  }

 private:
  template <typename F>
  static R Call(void* captures, Args... args) {
    return (*std::launder(static_cast<F*>(captures)))(
        std::forward<Args>(args)...);
  }

  R (*call_)(void*, Args...) = nullptr;
  alignas(std::uint64_t) unsigned char captures_[kCaptureBytes] = {};
};

class EventQueue {
 public:
  using Action = InlineCallable<void()>;

  Cycles now() const { return now_; }

  // Schedules `action` to run at absolute time `when` (>= now).
  void At(Cycles when, Action action);

  // Schedules `action` to run `delay` cycles from now.
  void After(Cycles delay, Action action) { At(now_ + delay, action); }

  // Schedules `action` at the current time, after already-queued
  // same-timestamp events.
  void Now(Action action) { At(now_, action); }

  // Moves the clock to `when` (>= now) and returns true when no queued
  // event is due at or before `when`, no PendingNowScope holds work due
  // now, and `when` is within the bound of a running RunUntil; otherwise
  // changes nothing and returns false.  O(1); see the header comment for
  // when it refuses.
  bool TryAdvance(Cycles when) {
    if (when < now_) {
      throw std::logic_error("EventQueue: advancing into the past");
    }
    if (when > bound_ || pending_now_ != 0 || !buckets_[0].empty()) {
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

  // Held by an action that does, one after another, several pieces of
  // work due now in place of queuing an event for each.  set(n) says n
  // pieces are still to come after the one about to run; TryAdvance
  // refuses while n > 0.  The count goes back to 0 when the scope ends,
  // an exception included.
  class PendingNowScope {
   public:
    explicit PendingNowScope(EventQueue& queue) : queue_(queue) {}
    PendingNowScope(const PendingNowScope&) = delete;
    PendingNowScope& operator=(const PendingNowScope&) = delete;
    ~PendingNowScope() { queue_.pending_now_ = 0; }
    void set(int n) { queue_.pending_now_ = n; }

   private:
    EventQueue& queue_;
  };

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

  // Approximate heap footprint: the buckets' arrays.
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
  static_assert(std::is_trivially_copyable_v<Event>,
                "events move between radix buckets as plain bytes");

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
  // Pieces of work due now that a PendingNowScope's action has still to
  // do; TryAdvance refuses while it is non-zero.
  int pending_now_ = 0;
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
