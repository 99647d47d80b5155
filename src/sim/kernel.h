// The simulated OS kernel: CPUs, threads, scheduler, timer interrupts.
//
// This is the substrate on which every profile in the paper is reproduced.
// It models exactly the mechanisms whose interactions OSprof observes:
//
//  * N CPUs with a round-robin run queue, a scheduling quantum Q, and a
//    context-switch cost (the paper's machine: ~5.6us switch, Q = 2^26
//    cycles ~ 39ms at 1.7 GHz).
//  * Optional in-kernel preemption (Linux 2.6 CONFIG_PREEMPT vs the
//    non-preemptive Linux 2.4 / FreeBSD 5.2 behaviour of §3.3): a thread
//    executing in kernel mode is forcibly preempted at quantum expiry only
//    if kernel preemption is enabled; in user mode it is always
//    preemptible.
//  * Periodic timer interrupts that steal CPU from whatever request is
//    running -- the source of the small 4ms-spaced peaks in Figure 3.
//  * Per-CPU TSC offsets (clock skew, §3.4): ReadTsc() returns the current
//    CPU's counter, so a thread migrating between probe reads observes the
//    skew.
//
// Simulated code advances time only through awaitables (Cpu, CpuUser,
// CpuNoisy, Sleep, Yield and the sync/disk primitives); the C++ code
// between awaits is zero simulated time.  The kernel is single-real-
// threaded and deterministic.  A CPU burst whose end no queued event
// precedes ends inline, without an event or a suspension; everything
// runs in the same order and at the same simulated times either way.
//
// A thread that becomes runnable begins a context switch on every idle
// CPU of its node.  The idle CPUs of one 64-bit word of the node's idle
// bitmap switch as a batch: one event completes their switches, lowest
// CPU first, and keeps the event queue from advancing past the CPUs
// still waiting in it, so the batch runs exactly as one event per CPU
// queued back to back would.
//
// One Kernel event loop can simulate an N-node cluster: KernelConfig
// partitions the CPUs into `num_nodes` contiguous slices, each owned by an
// osim::Node with its own run queue, so threads never migrate across node
// boundaries and per-node scheduling is independent -- while the single
// event queue keeps the whole cluster deterministic.  Cross-node traffic
// (DLM grants, RPC) goes over the osnet fabric, never through the
// scheduler.  With num_nodes == 1 (the default) the node layer is
// invisible and scheduling is byte-identical to the pre-node kernel.

#ifndef OSPROF_SRC_SIM_KERNEL_H_
#define OSPROF_SRC_SIM_KERNEL_H_

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/clock.h"
#include "src/sim/event_queue.h"
#include "src/sim/interference.h"
#include "src/sim/lock_order.h"
#include "src/sim/race_tracker.h"
#include "src/sim/request_context.h"
#include "src/sim/rng.h"
#include "src/sim/run_queue.h"
#include "src/sim/task.h"

namespace osim {

using osprof::Cycles;

class Kernel;

// Whether a CPU burst executes in user or kernel mode; preemption policy
// differs (§3.3).
enum class ExecMode { kUser, kKernel };

enum class ThreadState {
  kCreated,   // Spawned, never dispatched.
  kRunnable,  // In the run queue.
  kRunning,   // Executing C++ code right now (inside a resume).
  kOnBurst,   // Occupying a CPU for a timed burst.
  kSpinning,  // Occupying a CPU, busy-waiting on a spinlock.
  kBlocked,   // Off-CPU: sleeping, waiting on a semaphore or I/O.
  kFinished,
};

// A simulated thread of execution (a process, from the profiler's point of
// view; the simulated kernel does not distinguish).
class SimThread {
 public:
  SimThread(int id, std::string name) : id_(id), name_(std::move(name)) {}

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  ThreadState state() const { return state_; }
  int cpu() const { return cpu_; }
  // The node this thread is pinned to (threads never cross nodes).
  int node() const { return node_; }

  // Lifetime statistics.
  Cycles cpu_time() const { return cpu_time_; }
  // CPU time split by execution mode (spin waits count as system time).
  Cycles user_time() const { return user_time_; }
  Cycles system_time() const { return cpu_time_ - user_time_; }
  std::uint64_t forced_preemptions() const { return forced_preemptions_; }
  std::uint64_t voluntary_switches() const { return voluntary_switches_; }
  Cycles sem_wait_time() const { return sem_wait_time_; }
  Cycles spin_wait_time() const { return spin_wait_time_; }

 private:
  friend class Kernel;
  friend class SimSemaphore;
  friend class SimSpinlock;
  friend class WaitQueue;
  friend class WaiterList;

  int id_;
  std::string name_;
  Task<void> body_;
  std::coroutine_handle<> resume_point_;
  ThreadState state_ = ThreadState::kCreated;
  int node_ = 0;
  int cpu_ = -1;
  // Last CPU this thread ran on; a dispatch to a different one is a
  // migration (reported on the interference channel).
  int last_cpu_ = -1;

  // Current CPU burst, if any.
  Cycles burst_remaining_ = 0;
  Cycles slice_in_flight_ = 0;
  ExecMode burst_mode_ = ExecMode::kKernel;
  Cycles quantum_remaining_ = 0;

  // Bookkeeping for spinlock waits.
  Cycles spin_started_ = 0;

  // The next thread on the waiter list this thread is blocked or spinning
  // on (see WaiterList in src/sim/sync.h).  A thread is on at most one
  // list, so one link serves every primitive.
  SimThread* wait_next_ = nullptr;

  // Locks this thread currently holds, for the lock-order tracker.
  // Embedded here so the tracker's hot paths need no thread-id lookup.
  HeldLockStack held_locks_;

  // Wait attribution for the request context: when the thread last became
  // runnable, when it last parked, and which LayerComponent (or -1 for an
  // unattributed park, e.g. Sleep) that park charges at wakeup.
  Cycles runnable_since_ = 0;
  Cycles blocked_since_ = 0;
  int blocked_component_ = -1;

  // Statistics.
  Cycles cpu_time_ = 0;
  Cycles user_time_ = 0;
  std::uint64_t forced_preemptions_ = 0;
  std::uint64_t voluntary_switches_ = 0;
  Cycles sem_wait_time_ = 0;
  Cycles spin_wait_time_ = 0;
};

struct KernelConfig {
  int num_cpus = 1;
  // Nodes the machine's CPUs are partitioned into (a cluster simulated by
  // one event loop).  num_cpus must divide evenly; node i owns the
  // contiguous CPUs [i*per_node, (i+1)*per_node).  1 = the classic
  // single-machine kernel, byte-identical to the pre-node scheduler.
  int num_nodes = 1;
  double cpu_hz = osprof::kPaperCpuHz;
  // Scheduling quantum Q.  The paper measures ~58ms and models Q = 2^26
  // cycles (~39ms at 1.7 GHz); we use 2^26 so Figure 3's preempted
  // requests land in bucket 26.
  Cycles quantum = Cycles{1} << 26;
  bool kernel_preemption = true;
  // Context switch: ~5.6us at 1.7 GHz.
  Cycles context_switch_cost = 9520;
  // Timer interrupt: every 4ms; servicing one costs ~5us of stolen CPU,
  // which is what pushes a hit request into bucket ~13 (Figure 3).
  Cycles timer_tick_period = 6'800'000;
  Cycles timer_irq_cost = 8'500;
  // Per-CPU TSC offsets (clock skew, §3.4).  Sized/expanded to num_cpus.
  std::vector<std::int64_t> tsc_skew;
  std::uint64_t seed = 42;
  // Free a thread's SimThread + coroutine frame the moment it finishes
  // (its lifetime statistics are folded into kernel aggregates first).
  // Required for million-task churn workloads, where keeping every dead
  // thread would grow memory without bound; off by default because
  // tests/tools that inspect threads() post-mortem expect the objects to
  // survive.  Thread ids stay monotonic either way.
  bool reap_finished = false;
};

// Heap footprint of the simulation substrate, surfaced through the kernel
// so scale workloads can assert memory stays bounded (ROADMAP item 2).
// All figures are approximations computed from container capacities --
// cheap enough to sample mid-run.
struct KernelMemoryStats {
  int live_threads = 0;
  std::uint64_t spawned_threads = 0;
  std::uint64_t reaped_threads = 0;
  // Live SimThread objects plus the id-indexed slot vector's capacity.
  std::size_t thread_bytes = 0;
  // Scheduler queue: chunks held (including recycled ones) and the
  // deepest the queue has ever been.
  std::size_t run_queue_bytes = 0;
  std::size_t run_queue_peak_depth = 0;
  // Radix-heap event queue: its buckets' arrays, which hold the queued
  // events and keep their high-water capacity.
  std::size_t event_queue_bytes = 0;
  std::size_t events_pending = 0;
  // Request-context span arena: frame pool plus per-thread tops.
  std::size_t context_bytes = 0;
  std::size_t context_pool_frames = 0;

  std::size_t TotalBytes() const {
    return thread_bytes + run_queue_bytes + event_queue_bytes +
           context_bytes;
  }
};

// A kernel-owned node identity: one simulated machine of the cluster.  A
// node bundles a contiguous slice of the kernel's CPUs with its own run
// queue; the osnet fabric gives each node a NIC endpoint addressed by the
// node id, and cluster file systems instantiate their per-node state
// (page cache, fd table, DLM endpoint) against the same id.  Threads are
// pinned to the node that spawned them: the scheduler dispatches a node's
// run queue onto that node's CPUs only.
class Node {
 public:
  // Never copied or moved: the kernel builds its nodes in place, in a
  // fixed array, and a node's run queue cannot move.
  Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  int id() const { return id_; }
  int first_cpu() const { return first_cpu_; }
  int num_cpus() const { return num_cpus_; }
  // Runnable threads currently queued on this node.
  std::size_t queue_depth() const { return run_queue_.size(); }

 private:
  friend class Kernel;
  int id_ = 0;
  int first_cpu_ = 0;
  int num_cpus_ = 0;
  // CPUs of this node with no running thread and no switch in flight:
  // bit i % 64 of word i / 64 is CPU first_cpu_ + i.
  std::vector<std::uint64_t> idle_;
  ChunkedQueue<SimThread*> run_queue_;

  // A CPU leaves the bitmap only when DispatchIdle drains its word.
  void SetIdle(int cpu) {
    const auto i = static_cast<std::size_t>(cpu - first_cpu_);
    idle_[i / 64] |= std::uint64_t{1} << (i % 64);
  }
};

class Kernel {
 public:
  explicit Kernel(KernelConfig config = {});

  const KernelConfig& config() const { return config_; }
  EventQueue& events() { return events_; }
  Cycles now() const { return events_.now(); }
  Rng& rng() { return rng_; }

  // Lock-order analysis (lockdep-style); disabled by default, see
  // src/sim/lock_order.h.  The sync primitives report acquisitions here.
  LockOrderTracker& lock_order() { return lock_order_; }
  const LockOrderTracker& lock_order() const { return lock_order_; }

  // Happens-before race detection over simulated tasks; disabled by
  // default, see src/sim/race_tracker.h.  The scheduler and sync
  // primitives feed it edges through the interference channel.
  RaceTracker& races() { return race_tracker_; }
  const RaceTracker& races() const { return race_tracker_; }

  // The per-task span stack shared by every profiling consumer (see
  // src/sim/request_context.h).  Profilers push/pop frames; the scheduler
  // and sync primitives attribute waits to the innermost active span.
  RequestContext& context() { return context_; }
  const RequestContext& context() const { return context_; }

  // The single emission point for every scheduling/interference event the
  // kernel produces (see src/sim/interference.h).  Analyzers such as the
  // noise profiler subscribe here instead of hooking individual call
  // sites.
  InterferenceChannel& channel() { return channel_; }
  const InterferenceChannel& channel() const { return channel_; }

  // Reads the TSC of the CPU the current thread runs on (includes that
  // CPU's skew).  Callable from thread context only.  Inline: this is a
  // per-probe call on the Wrap fast path.
  Cycles ReadTsc() const {
    const Cycles base = events_.now();
    if (current_ != nullptr && current_->cpu_ >= 0) {
      const std::int64_t skew =
          config_.tsc_skew[static_cast<std::size_t>(current_->cpu_)];
      return static_cast<Cycles>(static_cast<std::int64_t>(base) + skew);
    }
    return base;
  }

  // Samples the global clock and the current CPU's TSC together; the span
  // entry/exit paths take one sample instead of two clock calls.
  osprof::ClockSample SampleClocks() const {
    const Cycles base = events_.now();
    osprof::ClockSample s{base, base};
    if (current_ != nullptr && current_->cpu_ >= 0) {
      s.tsc = static_cast<Cycles>(
          static_cast<std::int64_t>(base) +
          config_.tsc_skew[static_cast<std::size_t>(current_->cpu_)]);
    }
    return s;
  }

  // The thread whose code is executing right now, or nullptr when the
  // kernel itself (event callbacks) runs.
  SimThread* current() const { return current_; }

  // Creates a thread running `body`.  The body coroutine must have been
  // created suspended (all Task<void> coroutines are).  Threads become
  // runnable immediately, on the spawner's node (node 0 from kernel
  // context) -- like fork, a child starts where its parent runs.
  SimThread* Spawn(std::string name, Task<void> body);

  // Spawn pinned to a specific node (multi-node scenarios place their
  // per-node clients and daemons explicitly).
  SimThread* SpawnOn(int node, std::string name, Task<void> body);

  // --- Cluster topology -------------------------------------------------

  int num_nodes() const { return config_.num_nodes; }
  const Node& node(int id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }
  int node_of_cpu(int cpu) const {
    return node_of_cpu_[static_cast<std::size_t>(cpu)];
  }
  // Node of the currently executing thread, or -1 in kernel context.
  int current_node() const {
    return current_ != nullptr ? current_->node_ : -1;
  }

  // --- Lock bookkeeping for primitives outside src/sim ------------------
  // Records an acquisition/release of a lock-like object by the current
  // thread with the lock-order and race trackers, exactly as the in-tree
  // primitives (SimSemaphore, SimSpinlock) do.  The DLM (src/net/dlm.h)
  // reports its cluster-wide resource locks here so cross-node
  // acquired-while-held edges land in one merged lock graph and grants
  // order data accesses for SimRace.  `name` must stay alive until the
  // matching release; both calls are no-ops in kernel context.
  void NoteLockAcquired(const void* lock, const std::string& name);
  void NoteLockReleased(const void* lock);

  // --- Awaitables usable inside thread coroutines -----------------------

  // Consumes `cycles` of CPU in kernel mode.  May be forcibly preempted at
  // quantum expiry if kernel preemption is enabled.
  auto Cpu(Cycles cycles) {
    return CpuAwaitable<ExecMode::kKernel>{this, cycles};
  }
  // Consumes CPU in user mode (always preemptible at quantum expiry).
  auto CpuUser(Cycles cycles) {
    return CpuAwaitable<ExecMode::kUser>{this, cycles};
  }
  // Consumes kernel-mode CPU: `cycles` scaled by a log-normal factor with
  // median 1 and log-space sigma `sigma`, at least one cycle.  The factor
  // is drawn from rng() when the call is evaluated (no draw if sigma is
  // 0), so `co_await CpuNoisy(...)` draws right before the burst starts.
  auto CpuNoisy(Cycles cycles, double sigma) {
    double factor = 1.0;
    if (sigma > 0.0) {
      factor = rng_.LogNormal(1.0, sigma);
    }
    return Cpu(static_cast<Cycles>(
        std::max(1.0, static_cast<double>(cycles) * factor)));
  }
  // Blocks off-CPU for `cycles` (e.g. a daemon sleeping between runs).
  auto Sleep(Cycles cycles) { return SleepAwaitable{this, cycles}; }
  // Voluntarily yields the CPU, going to the back of the run queue.
  auto Yield() { return YieldAwaitable{this}; }

  // --- Driving the simulation -------------------------------------------

  // Runs until all spawned threads have finished (daemon-style infinite
  // threads would make this spin; use RunFor for those scenarios).
  void RunUntilThreadsFinish();
  // Runs the event queue until simulated time `until`.
  void RunFor(Cycles duration);
  void RunUntil(Cycles until);

  // Number of threads not yet finished.
  int live_threads() const { return live_threads_; }

  std::uint64_t total_forced_preemptions() const;
  std::uint64_t context_switches() const { return context_switches_; }
  std::uint64_t timer_interrupts_delivered() const { return timer_irqs_; }

  // Id-indexed thread slots.  With reap_finished set, a finished thread's
  // slot is null; callers iterating post-mortem must skip nulls then.
  const std::vector<std::unique_ptr<SimThread>>& threads() const {
    return threads_;
  }

  // Threads ever spawned / reaped (monotonic; reaped is 0 unless
  // config().reap_finished).
  std::uint64_t spawned_threads() const { return spawned_threads_; }
  std::uint64_t reaped_threads() const { return reaped_threads_; }

  // Snapshot of the substrate's heap footprint; see KernelMemoryStats.
  KernelMemoryStats MemoryStats() const;

 private:
  friend class SimSemaphore;
  friend class SimSpinlock;
  friend class WaitQueue;
  friend class SimDisk;

  // A CPU burst.  When no queued event is due before the burst would end,
  // it ends inline: the clock moves to its end, await_suspend returns
  // false and the coroutine carries on with no event and no suspension
  // (see ScheduleSlice).  The mode is a template parameter, not a field,
  // so the awaitable stays 16 bytes: every coroutine that holds one across
  // a suspension keeps it in its frame.
  template <ExecMode kMode>
  struct CpuAwaitable {
    Kernel* kernel;
    Cycles cycles;
    bool await_ready() const noexcept { return cycles == 0; }
    bool await_suspend(std::coroutine_handle<> h) {
      return !kernel->StartBurst(h, cycles, kMode);
    }
    void await_resume() const noexcept {}
  };
  static_assert(sizeof(CpuAwaitable<ExecMode::kKernel>) == 16);

  struct SleepAwaitable {
    Kernel* kernel;
    Cycles cycles;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };

  struct YieldAwaitable {
    Kernel* kernel;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };

  SimThread* SpawnImpl(int node, std::string name, Task<void> body);

  // Scheduler internals.  Dispatch and preemption are per-node: a node's
  // run queue feeds that node's CPUs only.
  void MakeRunnable(SimThread* t);
  // Begins a context switch on every idle CPU of `node` when its run
  // queue is non-empty.  The idle CPUs of one bitmap word switch as a
  // batch: one event, context_switch_cost later, completes each of them
  // (CompleteSwitches).
  void DispatchIdle(Node& node);
  // The batch event: completes the switch of each CPU `first + i` with
  // bit i set in `cpus`, lowest first.  The CPUs after the one switching
  // are pending-now work (EventQueue::PendingNowScope), so a burst the
  // switched-in thread starts cannot end inline past them: everything
  // runs in the order and at the times one event per CPU would give.
  void CompleteSwitches(int first, std::uint64_t cpus);
  void CompleteSwitch(int cpu);
  void ResumeThread(SimThread* t);
  // Starts a burst for the current thread, suspended at `h`.  Returns true
  // when the burst ended inline and the thread carries on running.
  bool StartBurst(std::coroutine_handle<> h, Cycles cycles, ExecMode mode);
  // Runs `t`'s next slice.  A slice that is the rest of the burst ends
  // inline when the event queue can advance to its end (TryAdvance) and
  // the native stack is shallow enough (kInlineStackBytes); the function
  // then returns true and the caller resumes `t` itself.  Otherwise it
  // queues OnSliceEnd at the slice's end, or preempts `t` (quantum gone, a
  // thread waiting) and queues nothing, and returns false.
  bool ScheduleSlice(SimThread* t);
  void OnSliceEnd(SimThread* t);
  // A finished slice's bookkeeping: burst, quantum, CPU and user time.
  void EndSlice(SimThread* t, Cycles slice);
  void ReleaseCpuOf(SimThread* t);
  bool BurstPreemptible(const SimThread* t) const;
  // Wall-clock duration of `t`'s CPU slice including timer-interrupt
  // service time stolen within it.
  Cycles WallClockFor(const SimThread* t, Cycles start, Cycles slice);

  // Used by sync primitives: park the current thread (state kBlocked is
  // handled by the caller via awaitable) / wake a parked thread.
  void Wake(SimThread* t) { MakeRunnable(t); }
  // Resume a spinlock waiter on its own CPU after charging the spin time.
  void GrantSpin(SimThread* t);

  // Folds a finishing thread's lifetime statistics into the kernel-level
  // aggregates and frees its slot (reap_finished only).
  void ReapThread(SimThread* t);

  KernelConfig config_;
  EventQueue events_;
  Rng rng_;
  LockOrderTracker lock_order_;
  RaceTracker race_tracker_;
  RequestContext context_;
  InterferenceChannel channel_;
  // Per-node scheduling state (run queue + idle-CPU bitmap): a fixed
  // array of config_.num_nodes, built at construction, because Node
  // embeds a non-movable ChunkedQueue.
  std::unique_ptr<Node[]> nodes_;
  std::vector<int> node_of_cpu_;
  std::vector<std::unique_ptr<SimThread>> threads_;
  SimThread* current_ = nullptr;
  // A thread's coroutines run on the native stack of the ResumeThread that
  // resumed them, and a build without tail calls (the sanitizer presets,
  // -O0) grows that stack at every symmetric transfer between tasks.  A
  // queued burst end unwinds it; an inline one does not.  So a burst ends
  // inline only while the stack is less than kInlineStackBytes below
  // ResumeThread's frame, recorded here.  An optimized build transfers by
  // tail call and never gets near the limit.
  static constexpr std::intptr_t kInlineStackBytes = 64 * 1024;
  std::uintptr_t resume_frame_ = 0;
  int live_threads_ = 0;
  std::uint64_t context_switches_ = 0;
  std::uint64_t timer_irqs_ = 0;
  // The first timer-tick boundary after the last slice start WallClockFor
  // saw (0 before the first).
  Cycles next_tick_ = 0;
  std::uint64_t spawned_threads_ = 0;
  std::uint64_t reaped_threads_ = 0;
  // Statistics of reaped threads, folded in at reap time so kernel-wide
  // totals survive the SimThread objects.
  std::uint64_t reaped_forced_preemptions_ = 0;
  std::uint64_t reaped_voluntary_switches_ = 0;
  Cycles reaped_cpu_time_ = 0;
  Cycles reaped_user_time_ = 0;
};

}  // namespace osim

#endif  // OSPROF_SRC_SIM_KERNEL_H_
