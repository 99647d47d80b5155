// The kernel-owned per-task span stack: one cross-layer spine for
// call-graph derivation, lock-order op annotation, and exact layered
// latency decomposition (ReLayTracer-style request slicing on an
// LTTng-style kernel-owned context).
//
// Every SimProfiler::Wrap pushes a frame at entry and pops it at exit.
// While a frame is on top of its thread's stack, the kernel attributes
// that thread's waits to it (run-queue time at dispatch, lock waits at
// wakeup/handoff, tagged WaitQueue parks for driver and network waits).
// At pop time the frame's duration splits exactly into self-CPU plus the
// attributed waits; waits propagate to the enclosing frame, and an opaque
// child's self-CPU is charged to the parent's component for that child's
// layer class, so a user-level op's decomposition accounts for every
// cycle below it.
//
// Frames also carry enough lineage for the consumers that used to keep
// private stacks: Pop() reports the nearest enclosing frame of the same
// owner (the caller, for SimProfiler's call edges), and TopSpan() exposes
// the innermost active op for LockOrderTracker's edge annotations and the
// race tracker's report tags.
//
// All bookkeeping is plain C++ between awaits: zero simulated time, so
// committed goldens are byte-identical with or without consumers attached.
// Only SimProfiler may push or pop frames -- enforced by osprof_lint's
// probe-discipline rule.
//
// Storage is a per-kernel free-list arena: every frame lives in one
// contiguous pool, each thread's stack is an index chain through it, and
// a freed slot is recycled through a free list.  Push and Pop are O(1)
// index moves with no steady-state heap traffic (ISSUE 6), and the pool
// only ever grows to the high-water mark of simultaneously open spans.

#ifndef OSPROF_SRC_SIM_REQUEST_CONTEXT_H_
#define OSPROF_SRC_SIM_REQUEST_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "src/core/clock.h"
#include "src/core/layered.h"
#include "src/core/op_table.h"

namespace osim {

using osprof::Cycles;

// Per-profiler span descriptor, pushed (by address) with every frame: the
// address is the owner identity that scopes caller/child lineage, `ops`
// names the owner's OpIds, and `cls` is the component class the owner's
// spans charge to their parents (kLayerSelf = transparent).  One pointer
// store per Push instead of three fields.
struct SpanOwner {
  const osprof::OpTable* ops = nullptr;
  osprof::LayerComponent cls = osprof::kLayerSelf;
};

class RequestContext {
 public:
  // Everything a consumer needs at frame exit.
  struct PopResult {
    // Frame duration by the global clock (skew-free).
    Cycles duration = 0;
    // Exact decomposition; components sum to `duration`.
    Cycles components[osprof::kNumLayerComponents] = {};
    // Op of the nearest enclosing frame pushed by the same owner, or
    // kInvalidOpId for a top-level operation of that owner.
    osprof::OpId caller = osprof::kInvalidOpId;
    // True when no wait was attributed to the span: components[kLayerSelf]
    // equals duration and every other component is zero, so consumers can
    // record the one non-zero component instead of all six.
    bool self_only = true;
  };

  // Opens a span for thread `tid` on behalf of `owner` (which must
  // outlive the span).  Inline: runs at every span entry.
  void Push(int tid, const SpanOwner* owner, osprof::OpId op, Cycles now) {
    if (tid < 0) {
      return;
    }
    const auto index = static_cast<std::size_t>(tid);
    if (index >= tops_.size()) {
      GrowTops(index);
    }
    std::uint32_t slot = free_head_;
    if (slot != kNilFrame) {
      free_head_ = pool_[slot].below;
    } else {
      slot = GrowPool();
    }
    Frame& frame = pool_[slot];
    frame.owner = owner;
    frame.op = op;
    frame.entry = now;
    // comp[] stays garbage until the first attributed wait zeroes it
    // (TouchWaits); most spans never wait, and skipping the six zero
    // stores here and the six reads at Pop is most of the span cost.
    frame.has_waits = false;
    frame.below = tops_[index];
    tops_[index] = slot;
  }

  // Closes the innermost span of `tid`.  Inline: runs at every span exit,
  // and inlining lets the caller keep the whole PopResult in registers
  // instead of bouncing it through a hidden return slot.
  PopResult Pop(int tid, Cycles now) {
    if (tid < 0 || static_cast<std::size_t>(tid) >= tops_.size() ||
        tops_[static_cast<std::size_t>(tid)] == kNilFrame) {
      ThrowNoActiveSpan();
    }
    PopResult r;
    const std::uint32_t slot = tops_[static_cast<std::size_t>(tid)];
    Frame& frame = pool_[slot];

    r.duration = now >= frame.entry ? now - frame.entry : 0;
    if (frame.has_waits) {
      Cycles waits = 0;
      for (int c = osprof::kLayerSelf + 1; c < osprof::kNumLayerComponents;
           ++c) {
        r.components[c] = frame.comp[c];
        waits += frame.comp[c];
      }
      // Self-CPU is what no wait accounted for.  Clamped: an untagged
      // park inside the span cannot make self negative.
      r.components[osprof::kLayerSelf] =
          r.duration > waits ? r.duration - waits : 0;
      r.self_only = false;
    } else {
      // No waits: the whole duration is self-CPU and the default-zero
      // components stand.  r.self_only stays true.
      r.components[osprof::kLayerSelf] = r.duration;
    }

    if (frame.below != kNilFrame) {
      // Nested span: bubble waits to the enclosing frame, find the caller.
      PopNested(frame, r);
    }
    // Unlink and recycle the slot.
    tops_[static_cast<std::size_t>(tid)] = frame.below;
    frame.below = free_head_;
    free_head_ = slot;
    return r;
  }

  // Charges `cycles` of `component` wait to the innermost active span of
  // `tid`.  No-op when the thread has no active span (unprofiled code)
  // or the wait is zero cycles (an uncontended dispatch: charging zero
  // would only force the span onto the slow decomposition path).
  void AttributeWait(int tid, osprof::LayerComponent component,
                     Cycles cycles) {
    if (cycles == 0 || tid < 0 ||
        static_cast<std::size_t>(tid) >= tops_.size()) {
      return;
    }
    const std::uint32_t top = tops_[static_cast<std::size_t>(tid)];
    if (top == kNilFrame) {
      return;
    }
    Frame& frame = pool_[top];
    TouchWaits(frame);
    frame.comp[component] += cycles;
  }

  // The innermost active op of `tid`, if any, with the owner's layer
  // class (the race tracker tags reports with the layer the op belongs
  // to; the lock-order tracker reads only the op).
  bool TopSpan(int tid, const osprof::OpTable** ops, osprof::OpId* op,
               osprof::LayerComponent* cls) const {
    if (tid < 0 || static_cast<std::size_t>(tid) >= tops_.size()) {
      return false;
    }
    const std::uint32_t top = tops_[static_cast<std::size_t>(tid)];
    if (top == kNilFrame) {
      return false;
    }
    *ops = pool_[top].owner->ops;
    *op = pool_[top].op;
    *cls = pool_[top].owner->cls;
    return true;
  }

  // Drops all frames (between runs; never while spans are active).
  void Reset();

  // Frames in the pool (the high-water mark of simultaneously open spans;
  // frames are recycled, never released).
  std::size_t pool_frames() const { return pool_.size(); }

  // Approximate heap footprint: frame pool plus the per-thread tops.
  std::size_t ApproxBytes() const {
    return pool_.capacity() * sizeof(Frame) +
           tops_.capacity() * sizeof(std::uint32_t);
  }

 private:
  // Index of "no frame", for both stack bottoms and the free-list end.
  static constexpr std::uint32_t kNilFrame = 0xffffffffu;

  struct Frame;

  // First attributed wait of a span: zeroes the garbage comp[] exactly
  // once (deferred from Push, so wait-free spans never touch it).
  static void TouchWaits(Frame& frame) {
    if (frame.has_waits) {
      return;
    }
    for (int c = 0; c < osprof::kNumLayerComponents; ++c) {
      frame.comp[c] = 0;
    }
    frame.has_waits = true;
  }

  // Cold paths of Push: first sighting of a thread id / a deeper
  // high-water mark of simultaneously open spans.
  void GrowTops(std::size_t index);
  std::uint32_t GrowPool();

  // Out-of-line tail of Pop for nested spans: charges the popped frame's
  // waits and opaque self-CPU to the parent and walks the lineage chain
  // for the same-owner caller.  Top-level pops (the common case) never
  // call it.
  void PopNested(Frame& frame, PopResult& r);

  [[noreturn]] static void ThrowNoActiveSpan();

  struct Frame {
    const SpanOwner* owner;
    osprof::OpId op;
    // False until the first AttributeWait / parent charge; while false,
    // comp[] is uninitialized garbage and must not be read.
    bool has_waits;
    Cycles entry;
    // Attributed waits (index kLayerSelf unused until Pop computes it).
    // Valid only when has_waits; zeroed lazily by TouchWaits.
    Cycles comp[osprof::kNumLayerComponents];
    // Pool index of the frame below this one on the same thread's stack
    // (kNilFrame at the bottom); doubles as the free-list link.
    std::uint32_t below;
  };

  // All frames, live and free, in one allocation.
  std::vector<Frame> pool_;
  // Head of the free-slot chain through Frame::below.
  std::uint32_t free_head_ = kNilFrame;
  // Indexed by dense thread id: pool index of the innermost frame.
  std::vector<std::uint32_t> tops_;
};

}  // namespace osim

#endif  // OSPROF_SRC_SIM_REQUEST_CONTEXT_H_
