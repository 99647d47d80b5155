// Profilers for the simulated OS (Figure 2's three layers).
//
// SimProfiler is the aggregate-stats front end used by all in-simulation
// instrumentation: operations record their latency (measured with the
// simulated per-CPU TSC) into a ProfileSet, optionally into a sampled
// (time-sliced) profile set, and optionally into per-peak value
// correlators (§3.1's "direct profile and value correlation").  Wrap is
// the one way a simulated operation is timed: it opens a span on the
// kernel's request context, so every operation also lands in the exact
// layered decomposition and, when it runs under another operation of the
// same profiler, on a caller->callee edge (§3.1's function-granularity
// profiling, the gcc -p analogue).
//
// Instrumentation cost model (§5.2): when `charge_overhead` is set, every
// probe consumes simulated CPU exactly like the paper's FSPROF_PRE/POST
// macros: a function-call cost outside the measured window, half the TSC
// read cost inside it on each side (so the measured latency has the same
// ~40-cycle floor the paper reports), and the bucket-sort/store cost after
// the second read.
//
// DriverProfiler attaches to a SimDisk and profiles the request stream at
// the driver level, where write and asynchronous I/O latencies are visible
// (the paper instruments a SCSI driver for the same reason).

#ifndef OSPROF_SRC_PROFILERS_SIM_PROFILER_H_
#define OSPROF_SRC_PROFILERS_SIM_PROFILER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/correlate.h"
#include "src/core/op_table.h"
#include "src/core/profile.h"
#include "src/core/sampling.h"
#include "src/profilers/profile_shards.h"
#include "src/profilers/profiler_sink.h"
#include "src/sim/disk.h"
#include "src/sim/kernel.h"
#include "src/sim/task.h"

namespace osprofilers {

using osim::Cycles;
using osim::Kernel;
using osim::SimDisk;
using osim::Task;

// Per-probe CPU costs, in cycles.  The defaults reproduce both §5.2
// observations at once: the component decomposition (function calls :
// TSC reads : sort/store = 1.5% : 0.5% : 2.0% of system time, i.e.
// 75 : 25 : 100 cycles of the ~200-cycle total) and the ~40-cycle floor
// between the two TSC reads.  Part of the call overhead (returning from
// the pre hook, entering the post hook) and roughly half of each TSC read
// land *inside* the measured window, which is how both can be true.
struct InstrumentationCosts {
  // Function-call overhead of the pre/post hooks.
  Cycles call_outside_pre = 37;   // Entering the pre hook.
  Cycles call_inside_pre = 15;    // Returning from it, inside the window.
  Cycles call_inside_post = 15;   // Calling the post hook, inside.
  Cycles call_outside_post = 8;   // Returning from it.
  // TSC reads: about half of each read's cost sits inside the window.
  Cycles tsc_inside_pre = 5;
  Cycles tsc_inside_post = 5;
  Cycles tsc_outside = 15;
  // Bucket sort + store, after the second read.
  Cycles store = 100;

  Cycles CallTotal() const {
    return call_outside_pre + call_inside_pre + call_inside_post +
           call_outside_post;
  }
  Cycles TscTotal() const {
    return tsc_inside_pre + tsc_inside_post + tsc_outside;
  }
  Cycles Total() const { return CallTotal() + TscTotal() + store; }
  // The smallest value a probe can record (bucket 5 at the defaults).
  Cycles MeasuredFloor() const {
    return call_inside_pre + call_inside_post + tsc_inside_pre +
           tsc_inside_post;
  }

  Cycles InsidePre() const { return call_inside_pre + tsc_inside_pre; }
  Cycles InsidePost() const { return call_inside_post + tsc_inside_post; }
  Cycles OutsidePre() const { return call_outside_pre; }
  Cycles OutsidePost() const {
    return call_outside_post + tsc_outside + store;
  }
};

template <typename T>
class WrapAwaitable;

class SimProfiler : public ProfilerSink {
 public:
  explicit SimProfiler(Kernel* kernel, int resolution = 1)
      : kernel_(kernel),
        profiles_(resolution),
        resolution_(resolution),
        layered_(resolution),
        edges_(resolution) {
    span_owner_.ops = &profiles_.ops();
    span_owner_.cls = component_;
  }

  // --- ProfilerSink ------------------------------------------------------
  // Defaults to "fs" because SimProfiler usually attaches as the FoSgen-
  // style in-file-system instrumentation; scenarios that record at the
  // syscall boundary relabel it "user".
  const std::string& layer() const override { return layer_; }
  void set_layer(std::string layer) {
    layer_ = std::move(layer);
    component_ = ComponentForLayer(layer_);
    span_owner_.cls = component_;
  }
  int resolution() const override { return resolution_; }
  // With sharding enabled, Collect() and layered() fold the shards'
  // post-epoch residue into a copy without disturbing the live shards
  // (collection is an observer): totals are identical to unsharded
  // recording because shard merging is pure integer addition.
  osprof::ProfileSet Collect() const override;
  // The exact per-(op, bucket) decomposition recorded by Wrap (empty for
  // record-only consumers that never wrap).
  const osprof::LayeredProfileSet* layered() const override;

  // When true, probes consume simulated CPU per `costs()` -- for overhead
  // experiments.  Off by default so behavioural profiles are undisturbed.
  void set_charge_overhead(bool charge) { charge_overhead_ = charge; }
  bool charge_overhead() const { return charge_overhead_; }
  InstrumentationCosts& costs() { return costs_; }

  // Starts splitting profiles into epochs of `epoch_cycles` (Figure 9).
  void EnableSampling(Cycles epoch_cycles);
  const osprof::SampledProfileSet* sampled() const { return sampled_.get(); }

  // Switches recording to per-CPU shards (one ProfileSet/LayeredProfileSet
  // pair per simulated CPU, paper §3.4's per-CPU update policy at arena
  // scale).  A task records only into the shard of the CPU it is currently
  // running on -- lock-free by construction -- and shards fold into the
  // base sets every `epoch_cycles` of simulated time (0 = only at
  // collection).  Because the fold is the associative/commutative integer
  // Merge, collected profiles are byte-identical to unsharded recording
  // for any CPU count and any epoch length.  Safe to call after probes
  // were resolved; idempotent reconfiguration replaces the shards.
  void EnableSharding(Cycles epoch_cycles = 0);
  const ShardedProfileArena* shards() const { return shards_raw_; }

  // Folds all shard residue into the base sets now (epoch boundaries do
  // this automatically; tests and end-of-run paths can force it).
  void FlushShards() {
    if (shards_raw_ != nullptr) {
      shards_raw_->FlushShards();
    }
  }

  // Interns `op` and returns the handle instrumentation should cache at
  // attach time (constructor / SetProfiler).  Resolving is idempotent and
  // does not make the operation visible in collected profiles; handles
  // stay valid across Reset().
  osprof::ProbeHandle Resolve(std::string_view op);

  // Routes (latency, value) pairs of `op` into a ValueCorrelator
  // (Figure 8).  The correlator must outlive the profiler's use.
  void AttachCorrelator(std::string_view op, osprof::ValueCorrelator* c);

  // The hot record path: indexed load, bucket index, increment -- no
  // allocation, no string compare, no tree walk (§5.2's ~100-cycle
  // sort-and-store budget).  Opens no span: for observers that fire
  // outside any task (DriverProfiler's disk-completion hook); a simulated
  // operation is timed with Wrap.  Always adds to the base set, sharded
  // or not: Collect sums the base set and the shards.
  void Record(osprof::ProbeHandle op, Cycles latency) {
    profiles_.AddById(op.id(), latency);
    if (sampled_ != nullptr) {
      SampledRecord(op, latency);
    }
  }
  // Wraps an operation coroutine with a latency probe:
  //
  //   co_return co_await profiler->Wrap(read_handle, ReadImpl(fd, n));
  //
  // Returns an awaitable, not a Task: the probe itself allocates no
  // coroutine frame.  Awaiting it opens a span on the kernel's shared
  // request context, starts `inner` in place, and runs the record/pop
  // bookkeeping when the inner operation completes -- all plain C++
  // between awaits, zero simulated time.  Charges instrumentation CPU
  // when charge_overhead() is on (that path routes through a coroutine:
  // burning simulated CPU requires co_awaits).  The probe reads the
  // simulated TSC of whatever CPU the thread is on at entry and exit, so
  // clock skew and migration behave as on real SMP (§3.4).
  template <typename T>
  WrapAwaitable<T> Wrap(osprof::ProbeHandle op, Task<T> inner) {
    return WrapAwaitable<T>(this, op, std::move(inner), nullptr);
  }

  // Like Wrap, but additionally records *`value` (read after the inner
  // operation completes) into the op's attached ValueCorrelator -- the
  // §3.1 "direct profile and value correlation" hook.  `value` must stay
  // valid until the inner operation finishes (typically a local in the
  // caller's coroutine frame that the inner operation fills in).
  template <typename T>
  WrapAwaitable<T> WrapWithValue(osprof::ProbeHandle op, Task<T> inner,
                                 const std::uint64_t* value) {
    return WrapAwaitable<T>(this, op, std::move(inner), value);
  }

  const osprof::ProfileSet& profiles() const { return profiles_; }

  // --- Call graph (§3.1's function granularity) --------------------------
  // Edge profiles of operations wrapped while another operation of this
  // profiler was open on the same thread, keyed "caller->callee".  Frames
  // of other profilers in between are skipped, so a user-layer wrap does
  // not hide an FS op's FS caller.  Top-level calls are not stored; see
  // EdgeSummaries.
  const osprof::ProfileSet& edges() const { return edges_; }

  struct EdgeSummary {
    std::string caller;  // "-" for top-level calls.
    std::string callee;
    std::uint64_t calls = 0;
    Cycles total_latency = 0;
  };
  // All edges, heaviest (by total latency) first, including the
  // top-level rows: an op's flat profile minus its incoming edges.
  std::vector<EdgeSummary> EdgeSummaries() const;

  // gprof-style report: for each operation, total time and how much of it
  // was spent inside profiled children, then every edge.
  std::string CallGraphReport(double cpu_hz) const;

  // Clears collected data (not configuration).  Keeps the op and edge
  // tables, so every previously resolved ProbeHandle stays valid and
  // continues to index the same operation.
  void Reset() override;

 private:
  template <typename U>
  friend class WrapAwaitable;

  // The overhead-charging Wrap body (§5.2): every burn is a co_await, so
  // this variant is a real coroutine.  WrapAwaitable substitutes it for
  // the payload when charge_overhead() is on.
  //
  // Clocks are sampled in batches (one ClockSample per side instead of a
  // now() plus a ReadTsc()); the TSC is re-read after each burn so the
  // measured window is exactly the uncharged one plus the inside costs,
  // cycle for cycle.
  template <typename T>
  Task<T> WrapCharged(osprof::ProbeHandle op, Task<T> inner,
                      const std::uint64_t* value) {
    const int tid =
        kernel_->current() != nullptr ? kernel_->current()->id() : -1;
    const osprof::ClockSample entry = kernel_->SampleClocks();
    if (tid >= 0) {
      kernel_->context().Push(tid, &span_owner_, op.id(), entry.now);
    }
    Cycles start = entry.tsc;
    if (costs_.OutsidePre() > 0) {
      co_await kernel_->Cpu(costs_.OutsidePre());
      start = kernel_->ReadTsc();
    }
    if (costs_.InsidePre() > 0) {
      co_await kernel_->Cpu(costs_.InsidePre());
    }
    if constexpr (std::is_void_v<T>) {
      co_await std::move(inner);
      co_await ChargedExit(op, tid, start, value);
    } else {
      T result = co_await std::move(inner);
      co_await ChargedExit(op, tid, start, value);
      co_return std::move(result);
    }
  }

  // WrapCharged's exit, shared by every result type: the inside-post
  // burn, the closing TSC read, the outside-post burn, then FinishSpan.
  Task<void> ChargedExit(osprof::ProbeHandle op, int tid, Cycles start,
                         const std::uint64_t* value);

  // Cold path of Record when sampling is enabled: the per-op sampled slot
  // is looked up by name once and cached by OpId thereafter.
  void SampledRecord(osprof::ProbeHandle op, Cycles latency);

  // Records a popped span's decomposition under the op's own latency
  // bucket, so each peak reads as a stack of components.  Inline so the
  // PopResult flows straight from Pop into the slot without a trip
  // through memory; the first sighting of an op fills its cached slot
  // out of line.
  void RecordLayered(osprof::ProbeHandle op, int bucket,
                     const osim::RequestContext::PopResult& span) {
    osprof::LayeredProfile* slot =
        layered_slots_[static_cast<std::size_t>(op.id())];
    if (slot == nullptr) {
      slot = LayeredSlot(op);
    }
    if (span.self_only) {
      slot->AddSelfOnly(bucket,
                        span.components[osprof::kLayerSelf]);
    } else {
      slot->Add(bucket, span.components);
    }
  }

  // Cold path of RecordLayered: resolves and caches the op's slot.
  osprof::LayeredProfile* LayeredSlot(osprof::ProbeHandle op);

  // Cold path of FinishSpan: a nested pop records into the caller->callee
  // edge profile.
  void RecordCallEdge(osprof::OpId caller, osprof::ProbeHandle callee,
                      Cycles latency);

  // Shared span-exit tail of every Wrap: one BucketIndex computation
  // feeds both the flat histogram and the layered decomposition, and the
  // frame pops only when a span was actually opened (tid >= 0).  A
  // WrapWithValue exit also feeds the op's correlator, if one is attached.
  void FinishSpan(osprof::ProbeHandle op, int tid, Cycles latency,
                  Cycles pop_now, const std::uint64_t* value) {
    if (value != nullptr && correlators_[op.id()] != nullptr) {
      correlators_[op.id()]->Record(latency, *value);
    }
    const int bucket = osprof::BucketIndex(latency, resolution_);
    if (shards_raw_ != nullptr) {
      ShardedFinishSpan(op, tid, latency, pop_now, bucket);
      return;
    }
    profiles_.AddById(op.id(), bucket, latency);
    if (sampled_ != nullptr) {
      SampledRecord(op, latency);
    }
    if (tid >= 0) {
      const osim::RequestContext::PopResult span =
          kernel_->context().Pop(tid, pop_now);
      RecordLayered(op, bucket, span);
      if (span.caller != osprof::kInvalidOpId) {
        RecordCallEdge(span.caller, op, latency);
      }
    }
  }

  // FinishSpan with per-CPU sharding on: identical bookkeeping, but the
  // flat increment and the layered decomposition land in the current
  // CPU's private shard.  Out of the unsharded path's way so goldens run
  // the exact code they always did.
  void ShardedFinishSpan(osprof::ProbeHandle op, int tid, Cycles latency,
                         Cycles pop_now, int bucket) {
    MaybeFlushEpoch();
    const int shard = CurrentShard();
    shards_raw_->AddById(shard, op.id(), bucket, latency);
    if (sampled_ != nullptr) {
      SampledRecord(op, latency);
    }
    if (tid >= 0) {
      const osim::RequestContext::PopResult span =
          kernel_->context().Pop(tid, pop_now);
      if (span.self_only) {
        shards_raw_->AddLayeredSelfOnly(shard, op.id(), bucket,
                                        span.components[osprof::kLayerSelf]);
      } else {
        shards_raw_->AddLayered(shard, op.id(), bucket, span.components);
      }
      if (span.caller != osprof::kInvalidOpId) {
        RecordCallEdge(span.caller, op, latency);
      }
    }
  }

  // The shard a record lands in: the current thread's CPU, or shard 0 for
  // records made from kernel context (e.g. DriverProfiler's completion
  // observer firing during interrupt handling).
  int CurrentShard() const {
    const osim::SimThread* t = kernel_->current();
    if (t == nullptr) {
      return 0;
    }
    const int cpu = t->cpu();
    return cpu >= 0 ? cpu : 0;
  }

  // Epoch boundary check, run before every sharded record: folding at the
  // deadline (rather than on a timer thread) keeps the merge on the single
  // real thread and adds one compare to the hot path.
  void MaybeFlushEpoch() {
    if (shard_epoch_ > 0 && kernel_->now() >= next_epoch_flush_) {
      shards_raw_->FlushShards();
      next_epoch_flush_ = kernel_->now() + shard_epoch_;
    }
  }

  // The component class a layer tag's spans charge to their parents:
  // "fs" -> kLayerFs, "driver" -> kLayerDriver, "cifs"/"nfs"/"net" ->
  // kLayerNet, anything else ("user") is transparent (kLayerSelf).
  static osprof::LayerComponent ComponentForLayer(const std::string& layer);

  Kernel* kernel_;
  std::string layer_ = "fs";
  osprof::LayerComponent component_ = osprof::kLayerFs;
  // Pushed with every span frame; identity, op table, and charge class
  // in one pointer (see osim::SpanOwner).
  osim::SpanOwner span_owner_;
  osprof::ProfileSet profiles_;
  int resolution_;
  bool charge_overhead_ = false;
  InstrumentationCosts costs_;
  std::unique_ptr<osprof::SampledProfileSet> sampled_;
  osprof::LayeredProfileSet layered_;
  // Indexed by OpId, parallel to profiles_.ops(); grown by Resolve().
  std::vector<osprof::ValueCorrelator*> correlators_;
  std::vector<osprof::SampledProfile*> sampled_slots_;
  std::vector<osprof::LayeredProfile*> layered_slots_;
  osprof::ProfileSet edges_;
  // (caller, callee) -> edge id in edges_; an edge's name is built once,
  // the first time it fires, and survives Reset().
  std::map<std::pair<osprof::OpId, osprof::OpId>, osprof::OpId> edge_ids_;
  Cycles sampling_epoch_ = 0;
  // Per-CPU sharding (EnableSharding): null means the classic unsharded
  // paths above run untouched.  shards_raw_ mirrors shards_.get() so the
  // hot-path branch is one pointer load, no unique_ptr indirection.
  std::unique_ptr<ShardedProfileArena> shards_;
  ShardedProfileArena* shards_raw_ = nullptr;
  Cycles shard_epoch_ = 0;
  Cycles next_epoch_flush_ = 0;
  // layered()'s sharded snapshot: base layered plus shard residue, valid
  // until the next layered() or Reset() per the sink contract.
  mutable osprof::LayeredProfileSet layered_snapshot_;
};

// The awaitable returned by SimProfiler::Wrap and WrapWithValue.  The
// uncharged fast path allocates nothing: await_ready does the span-entry
// bookkeeping (clock sample, frame push) and await_suspend starts the
// inner task by symmetric transfer -- one indirect jump, no extra
// resume/done round trip -- so the first inner instruction runs with the
// span already open.  await_resume records the latency (and feeds the
// correlator when a value pointer rides along) and pops the frame once
// the inner task has completed.  When overhead charging is on, the
// payload is replaced by the WrapCharged coroutine (which does its own
// bookkeeping) and awaited like any Task.
//
// The execution order is exactly the old coroutine Wrap's: entry
// bookkeeping before the inner operation's first instruction, exit
// bookkeeping after its last at the same simulated instant, and an
// escaping exception skips the record/pop (the span stays open), so
// committed goldens are byte-identical.
template <typename T>
class [[nodiscard]] WrapAwaitable {
 public:
  WrapAwaitable(SimProfiler* profiler, osprof::ProbeHandle op, Task<T> inner,
                const std::uint64_t* value)
      : profiler_(profiler), op_(op), inner_(std::move(inner)), value_(value) {}

  [[gnu::always_inline]] inline bool await_ready() {
    if (profiler_->charge_overhead_) {
      inner_ = profiler_->WrapCharged(op_, std::move(inner_), value_);
      charged_ = true;
      return false;  // The charged wrapper does its own bookkeeping.
    }
    Kernel* kernel = profiler_->kernel_;
    tid_ = kernel->current() != nullptr ? kernel->current()->id() : -1;
    const osprof::ClockSample entry = kernel->SampleClocks();
    if (tid_ >= 0) {
      kernel->context().Push(tid_, &profiler_->span_owner_, op_.id(),
                             entry.now);
    }
    start_ = entry.tsc;
    return false;
  }

  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<> awaiting) noexcept {
    const auto handle = inner_.handle();
    handle.promise().continuation = awaiting;
    // Symmetric transfer into the payload (charged or not); its final
    // awaiter transfers straight back to `awaiting` on completion.
    return handle;
  }

  [[gnu::always_inline]] inline T await_resume() {
    auto& promise = inner_.handle().promise();
    if (promise.exception) {
      std::rethrow_exception(promise.exception);
    }
    if (!charged_) {
      Kernel* kernel = profiler_->kernel_;
      const osprof::ClockSample exit = kernel->SampleClocks();
      const Cycles latency = exit.tsc >= start_ ? exit.tsc - start_ : 0;
      profiler_->FinishSpan(op_, tid_, latency, exit.now, value_);
    }
    if constexpr (!std::is_void_v<T>) {
      return std::move(inner_.handle().promise().value);
    }
  }

 private:
  SimProfiler* profiler_;
  osprof::ProbeHandle op_;
  Task<T> inner_;
  const std::uint64_t* value_;
  int tid_ = -1;
  Cycles start_ = 0;
  bool charged_ = false;
};

// Runs `inner` under profiler->Wrap(op, ...) when a profiler is attached,
// and unwrapped otherwise: how file systems and mounts time their
// operations, so instrumentation can be attached or left off per
// instance.
template <typename T>
Task<T> WrapIfAttached(SimProfiler* profiler, osprof::ProbeHandle op,
                       Task<T> inner) {
  if (profiler == nullptr) {
    co_return co_await std::move(inner);
  }
  co_return co_await profiler->Wrap(op, std::move(inner));
}

// Driver-level profiler: profiles every disk request's total latency under
// "disk_read" / "disk_write", and the queueing component separately under
// "disk_read_queue" / "disk_write_queue".
class DriverProfiler : public ProfilerSink {
 public:
  DriverProfiler(Kernel* kernel, SimDisk* disk, int resolution = 1);

  const osprof::ProfileSet& profiles() const { return profiler_.profiles(); }

  // --- ProfilerSink ------------------------------------------------------
  const std::string& layer() const override { return layer_; }
  int resolution() const override { return profiler_.resolution(); }
  // No layered decomposition: the disk observer records completed
  // requests from kernel context, outside any request span.
  osprof::ProfileSet Collect() const override { return profiler_.Collect(); }
  void Reset() override { profiler_.Reset(); }

 private:
  std::string layer_ = "driver";
  SimProfiler profiler_;
};

}  // namespace osprofilers

#endif  // OSPROF_SRC_PROFILERS_SIM_PROFILER_H_
