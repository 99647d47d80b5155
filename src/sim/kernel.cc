#include "src/sim/kernel.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace osim {
namespace {

Cycles SaturatingSub(Cycles a, Cycles b) { return a > b ? a - b : 0; }

std::uintptr_t FrameAddress() {
  return reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
}

}  // namespace

Kernel::Kernel(KernelConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  if (config_.num_cpus < 1) {
    throw std::invalid_argument("Kernel needs at least one CPU");
  }
  if (config_.quantum == 0) {
    throw std::invalid_argument("quantum must be positive");
  }
  if (config_.num_nodes < 1 || config_.num_nodes > config_.num_cpus ||
      config_.num_cpus % config_.num_nodes != 0) {
    throw std::invalid_argument(
        "num_nodes must divide num_cpus (contiguous even partition)");
  }
  config_.tsc_skew.resize(static_cast<std::size_t>(config_.num_cpus), 0);
  const int per_node = config_.num_cpus / config_.num_nodes;
  nodes_ =
      std::make_unique<Node[]>(static_cast<std::size_t>(config_.num_nodes));
  node_of_cpu_.resize(static_cast<std::size_t>(config_.num_cpus));
  for (int n = 0; n < config_.num_nodes; ++n) {
    Node& node = nodes_[static_cast<std::size_t>(n)];
    node.id_ = n;
    node.first_cpu_ = n * per_node;
    node.num_cpus_ = per_node;
    node.idle_.resize(static_cast<std::size_t>(per_node + 63) / 64);
    for (int c = node.first_cpu_; c < node.first_cpu_ + per_node; ++c) {
      node_of_cpu_[static_cast<std::size_t>(c)] = n;
      node.SetIdle(c);
    }
  }
  lock_order_.set_context(&context_);
  race_tracker_.set_context(&context_);
  race_tracker_.BindKernel(this);
  channel_.Bind(&context_, &lock_order_, &race_tracker_);
}

void Kernel::NoteLockAcquired(const void* lock, const std::string& name) {
  if (current_ != nullptr) {
    channel_.LockAcquired(lock, name, current_->held_locks_, current_->id_);
  }
}

void Kernel::NoteLockReleased(const void* lock) {
  if (current_ != nullptr) {
    channel_.LockReleased(lock, current_->held_locks_, current_->id_);
  }
}

SimThread* Kernel::Spawn(std::string name, Task<void> body) {
  // A child starts on its parent's node (node 0 from kernel context), so
  // single-node code never names a node and multi-node workloads fan out
  // naturally from one SpawnOn'd root per node.
  return SpawnImpl(current_ != nullptr ? current_->node_ : 0, std::move(name),
                   std::move(body));
}

SimThread* Kernel::SpawnOn(int node, std::string name, Task<void> body) {
  if (node < 0 || node >= num_nodes()) {
    throw std::invalid_argument("SpawnOn: no such node");
  }
  return SpawnImpl(node, std::move(name), std::move(body));
}

SimThread* Kernel::SpawnImpl(int node, std::string name, Task<void> body) {
  const int id = static_cast<int>(threads_.size());
  threads_.push_back(std::make_unique<SimThread>(id, std::move(name)));
  SimThread* t = threads_.back().get();
  t->node_ = node;
  t->body_ = std::move(body);
  if (!t->body_.valid()) {
    throw std::invalid_argument("Spawn requires a valid coroutine body");
  }
  t->resume_point_ = t->body_.handle();
  ++live_threads_;
  ++spawned_threads_;
  channel_.TaskSpawned(current_ != nullptr ? current_->id_ : -1, id);
  MakeRunnable(t);
  return t;
}

void Kernel::MakeRunnable(SimThread* t) {
  if (t->blocked_component_ >= 0) {
    // The park that blocked this thread was tagged (lock, disk, net):
    // the channel charges the blocked interval to the thread's innermost
    // active span.
    channel_.Wakeup(
        t->id_, static_cast<osprof::LayerComponent>(t->blocked_component_),
        events_.now() - t->blocked_since_, events_.now(), t->node_);
    t->blocked_component_ = -1;
  }
  channel_.TaskWoken(current_ != nullptr ? current_->id_ : -1, t->id_);
  t->runnable_since_ = events_.now();
  t->state_ = ThreadState::kRunnable;
  Node& node = nodes_[static_cast<std::size_t>(t->node_)];
  node.run_queue_.push_back(t);
  DispatchIdle(node);
}

void Kernel::DispatchIdle(Node& node) {
  // While the run queue is non-empty, every idle CPU of this node begins a
  // switch.  A word's idle CPUs switch together: one event completes
  // them, lowest CPU first, so placement -- and with it per-CPU TSC skew
  // -- follows CPU order.  A switch that finds the queue drained leaves
  // its CPU idle again (CompleteSwitch).  Under load the bitmap is all
  // zero and a wakeup costs one word test per 64 CPUs.  A node's run
  // queue never feeds another node's CPUs.
  if (node.run_queue_.empty()) {
    return;
  }
  for (std::size_t w = 0; w < node.idle_.size(); ++w) {
    if (node.idle_[w] == 0) {
      continue;
    }
    const std::uint64_t cpus = std::exchange(node.idle_[w], 0);
    const int first = node.first_cpu_ + static_cast<int>(w * 64);
    context_switches_ += static_cast<std::uint64_t>(std::popcount(cpus));
    events_.After(config_.context_switch_cost,
                  [this, first, cpus] { CompleteSwitches(first, cpus); });
  }
}

void Kernel::CompleteSwitches(int first, std::uint64_t cpus) {
  // The batch stands for one event per CPU, queued back to back: while
  // some of its CPUs still wait, no burst may end inline past them.
  EventQueue::PendingNowScope pending(events_);
  while (cpus != 0) {
    const int c = first + std::countr_zero(cpus);
    cpus &= cpus - 1;
    pending.set(std::popcount(cpus));
    CompleteSwitch(c);
  }
}

void Kernel::CompleteSwitch(int c) {
  Node& node = nodes_[static_cast<std::size_t>(
      node_of_cpu_[static_cast<std::size_t>(c)])];
  if (node.run_queue_.empty()) {
    node.SetIdle(c);
    return;  // Everyone found a CPU elsewhere; stay idle.
  }
  SimThread* t = node.run_queue_.front();
  node.run_queue_.pop_front();
  // Runnable-to-running interval (queue wait plus the switch itself) is
  // run-queue wait from the profiled request's point of view (§3.3).
  const bool migrated = t->last_cpu_ >= 0 && t->last_cpu_ != c;
  channel_.Dispatch(t->id_, events_.now() - t->runnable_since_, c, migrated,
                    events_.now(), t->node_);
  t->last_cpu_ = c;
  t->cpu_ = c;
  t->quantum_remaining_ = config_.quantum;
  if (t->burst_remaining_ > 0) {
    // The thread was preempted mid-burst; continue the burst rather than
    // resuming the coroutine, unless the rest of it ends inline.
    t->state_ = ThreadState::kOnBurst;
    if (!ScheduleSlice(t)) {
      return;
    }
  }
  ResumeThread(t);
}

void Kernel::ResumeThread(SimThread* t) {
  t->state_ = ThreadState::kRunning;
  SimThread* const prev = current_;
  current_ = t;
  resume_frame_ = FrameAddress();
  t->resume_point_.resume();
  current_ = prev;
  if (t->body_.done()) {
    t->state_ = ThreadState::kFinished;
    --live_threads_;
    ReleaseCpuOf(t);
    // Propagate escaped exceptions to the simulation driver: a crashed
    // simulated thread is a bug in the scenario, not something to swallow.
    t->body_.RethrowIfFailed();
    channel_.TaskExited(t->id_);
    if (config_.reap_finished) {
      ReapThread(t);
    }
    return;
  }
  // Otherwise the awaitable that suspended the thread has already moved it
  // to its next state (kOnBurst, kBlocked, kSpinning or kRunnable) and
  // performed the CPU bookkeeping.
}

void Kernel::ReleaseCpuOf(SimThread* t) {
  if (t->cpu_ >= 0) {
    Node& node = nodes_[static_cast<std::size_t>(t->node_)];
    node.SetIdle(t->cpu_);
    t->cpu_ = -1;
    DispatchIdle(node);
  }
}

bool Kernel::BurstPreemptible(const SimThread* t) const {
  return t->burst_mode_ == ExecMode::kUser || config_.kernel_preemption;
}

bool Kernel::StartBurst(std::coroutine_handle<> h, Cycles cycles,
                        ExecMode mode) {
  SimThread* t = current_;
  if (t == nullptr) {
    throw std::logic_error("Cpu awaited outside thread context");
  }
  t->resume_point_ = h;
  t->burst_remaining_ = cycles;
  t->burst_mode_ = mode;
  t->state_ = ThreadState::kOnBurst;
  if (!ScheduleSlice(t)) {
    return false;
  }
  t->state_ = ThreadState::kRunning;
  return true;
}

bool Kernel::ScheduleSlice(SimThread* t) {
  const bool preemptible = BurstPreemptible(t);
  Node& node = nodes_[static_cast<std::size_t>(t->node_)];
  if (t->quantum_remaining_ == 0) {
    if (preemptible && !node.run_queue_.empty()) {
      // Forced preemption: the quantum is gone and someone on this node
      // is waiting.
      ++t->forced_preemptions_;
      channel_.Preempt(t->id_, t->cpu_, events_.now(), t->node_);
      t->runnable_since_ = events_.now();
      t->state_ = ThreadState::kRunnable;
      node.run_queue_.push_back(t);
      ReleaseCpuOf(t);
      return false;
    }
    t->quantum_remaining_ = config_.quantum;
  }
  Cycles slice = t->burst_remaining_;
  if (preemptible && slice > t->quantum_remaining_) {
    slice = t->quantum_remaining_;
  }
  // Timer ticks inside the slice are published here, at its start, on
  // both paths.
  const Cycles wall = WallClockFor(t, events_.now(), slice);
  // When nothing queued is due by the slice's end, its end event would run
  // next: each caller is the last thing its own event does.  That event
  // would only do EndSlice and resume the thread, so do both now (the
  // caller resumes).
  // The stack grows down: a positive distance is depth below the frame.
  const auto depth = static_cast<std::intptr_t>(resume_frame_ - FrameAddress());
  if (slice == t->burst_remaining_ && depth < kInlineStackBytes &&
      events_.TryAdvance(events_.now() + wall)) {
    EndSlice(t, slice);
    return true;
  }
  t->slice_in_flight_ = slice;
  events_.After(wall, [this, t] { OnSliceEnd(t); });
  return false;
}

void Kernel::EndSlice(SimThread* t, Cycles slice) {
  t->burst_remaining_ -= slice;
  t->quantum_remaining_ = SaturatingSub(t->quantum_remaining_, slice);
  t->cpu_time_ += slice;
  if (t->burst_mode_ == ExecMode::kUser) {
    t->user_time_ += slice;
  }
}

void Kernel::OnSliceEnd(SimThread* t) {
  EndSlice(t, std::exchange(t->slice_in_flight_, 0));
  // Quantum expired mid-burst: ScheduleSlice preempts or refreshes, and
  // the thread resumes here only if the rest of the burst ended inline.
  if (t->burst_remaining_ > 0 && !ScheduleSlice(t)) {
    return;
  }
  ResumeThread(t);
}

Cycles Kernel::WallClockFor(const SimThread* t, Cycles start, Cycles slice) {
  const Cycles period = config_.timer_tick_period;
  const Cycles irq_cost = config_.timer_irq_cost;
  if (period == 0 || irq_cost == 0 || slice == 0) {
    return slice;
  }
  // `start` is always now(), which never decreases, so the first tick
  // boundary after it moves (one division) only once `start` reaches it.
  if (start >= next_tick_) {
    next_tick_ = (start / period + 1) * period;
  }
  // Interrupt service time stretches the slice, which can pull in further
  // ticks; iterate to the fixed point (converges immediately because
  // irq_cost << period).  The ticks in (start, start + wall] are
  // (start + wall) / period - start / period: none before next_tick_,
  // then one per period from it.
  Cycles wall = slice;
  std::uint64_t ticks = 0;
  for (int i = 0; i < 8; ++i) {
    const Cycles end = start + wall;
    const std::uint64_t n =
        end < next_tick_ ? 0 : 1 + (end - next_tick_) / period;
    const Cycles next = slice + n * irq_cost;
    ticks = n;
    if (next == wall) {
      break;
    }
    wall = next;
  }
  timer_irqs_ += ticks;
  if (ticks > 0) {
    channel_.TimerTicks(t->id_, ticks, ticks * irq_cost, start, t->node_);
  }
  return wall;
}

void Kernel::GrantSpin(SimThread* t) {
  const Cycles spun = events_.now() - t->spin_started_;
  channel_.LockHandoff(t->id_, spun, events_.now(), t->node_);
  t->spin_wait_time_ += spun;
  t->cpu_time_ += spun;
  // Spinning burns quantum; kernel spinlock sections are not preemption
  // points, so expiry is handled at the next burst boundary.
  t->quantum_remaining_ = SaturatingSub(t->quantum_remaining_, spun);
  ResumeThread(t);
}

void Kernel::RunUntilThreadsFinish() {
  while (live_threads_ > 0) {
    if (!events_.Step()) {
      throw std::logic_error(
          "Kernel: event queue drained with live threads (deadlock in the "
          "simulated scenario)");
    }
  }
}

void Kernel::RunFor(Cycles duration) { RunUntil(events_.now() + duration); }

void Kernel::RunUntil(Cycles until) { events_.RunUntil(until); }

void Kernel::ReapThread(SimThread* t) {
  reaped_forced_preemptions_ += t->forced_preemptions_;
  reaped_voluntary_switches_ += t->voluntary_switches_;
  reaped_cpu_time_ += t->cpu_time_;
  reaped_user_time_ += t->user_time_;
  ++reaped_threads_;
  // Destroying the SimThread destroys its Task<void> body, releasing the
  // coroutine frame -- the dominant per-task allocation.  The id-indexed
  // slot stays (null) so ids remain stable and monotonic.
  threads_[static_cast<std::size_t>(t->id_)].reset();
}

std::uint64_t Kernel::total_forced_preemptions() const {
  std::uint64_t total = reaped_forced_preemptions_;
  for (const auto& t : threads_) {
    if (t != nullptr) {
      total += t->forced_preemptions_;
    }
  }
  return total;
}

KernelMemoryStats Kernel::MemoryStats() const {
  KernelMemoryStats stats;
  stats.live_threads = live_threads_;
  stats.spawned_threads = spawned_threads_;
  stats.reaped_threads = reaped_threads_;
  stats.thread_bytes = threads_.capacity() * sizeof(threads_[0]);
  for (const auto& t : threads_) {
    if (t != nullptr) {
      stats.thread_bytes += sizeof(SimThread);
    }
  }
  stats.run_queue_bytes = 0;
  stats.run_queue_peak_depth = 0;
  for (int n = 0; n < num_nodes(); ++n) {
    const Node& node = nodes_[static_cast<std::size_t>(n)];
    stats.run_queue_bytes += node.run_queue_.ApproxBytes();
    stats.run_queue_peak_depth =
        std::max(stats.run_queue_peak_depth, node.run_queue_.peak_size());
  }
  stats.event_queue_bytes = events_.ApproxBytes();
  stats.events_pending = events_.size();
  stats.context_bytes = context_.ApproxBytes();
  stats.context_pool_frames = context_.pool_frames();
  return stats;
}

// --- Awaitable implementations ---------------------------------------------

void Kernel::SleepAwaitable::await_suspend(std::coroutine_handle<> h) {
  SimThread* t = kernel->current();
  if (t == nullptr) {
    throw std::logic_error("Sleep awaited outside thread context");
  }
  t->resume_point_ = h;
  t->state_ = ThreadState::kBlocked;
  kernel->ReleaseCpuOf(t);
  Kernel* k = kernel;
  k->events_.After(cycles, [k, t] { k->Wake(t); });
}

void Kernel::YieldAwaitable::await_suspend(std::coroutine_handle<> h) {
  SimThread* t = kernel->current();
  if (t == nullptr) {
    throw std::logic_error("Yield awaited outside thread context");
  }
  t->resume_point_ = h;
  ++t->voluntary_switches_;
  kernel->ReleaseCpuOf(t);
  kernel->MakeRunnable(t);
}

}  // namespace osim
