// The kernel's single interference-event channel.
//
// Every scheduling/interference event the simulated kernel produces --
// wait-queue park and wakeup, dispatch, migration, forced preemption,
// timer-tick service, spinlock handoff -- is emitted exactly once, here.
// The scheduler and the sync primitives call the emit methods below
// instead of reaching into individual consumers, so a new analyzer taps
// the same stream by subscribing rather than by adding another special
// case to kernel.cc ("one kernel event channel, many analyzers", the
// LTTng/Software-Performance-Analysis design).
//
// Two consumers are structural and therefore hardwired rather than
// subscribed:
//
//  * RequestContext -- the wakeup/dispatch/handoff emits carry the waited
//    interval and its LayerComponent, and the channel charges them to the
//    thread's innermost active span exactly as the scattered call sites
//    used to.  Hardwiring keeps the single-consumer fast path free of any
//    virtual dispatch, so committed goldens are byte-identical to the
//    pre-channel kernel.
//  * LockOrderTracker -- acquisition/release hooks forward unconditionally
//    because held-lock stack upkeep is mandatory bookkeeping, not
//    analysis (see src/sim/lock_order.h).
//  * RaceTracker -- the happens-before engine consumes the same stream
//    (task lifecycle, wakeups, lock transfers) as vector-clock edges;
//    hardwired for the same reason as the lock tracker, and every hook is
//    an inline enabled-flag test when detection is off (see
//    src/sim/race_tracker.h).
//
// Everything else subscribes.  With no subscribers an emit is the same
// inline RequestContext call as before plus one vector-empty test; with
// subscribers the event is materialized once and fanned out in
// subscription order, which is deterministic and -- because publishing
// consumes no simulated time -- cannot perturb the simulation itself.

#ifndef OSPROF_SRC_SIM_INTERFERENCE_H_
#define OSPROF_SRC_SIM_INTERFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/clock.h"
#include "src/core/layered.h"
#include "src/sim/lock_order.h"
#include "src/sim/race_tracker.h"
#include "src/sim/request_context.h"

namespace osim {

using osprof::Cycles;

enum class InterferenceKind {
  kPark,         // A thread parked on a tagged wait (component = tag).
  kWakeup,       // A tagged park ended (cycles = blocked interval).
  kDispatch,     // A runnable thread got a CPU (cycles = run-queue wait).
  kMigrate,      // That dispatch moved the thread to a different CPU.
  kPreempt,      // Forced preemption at quantum expiry.
  kTimerTick,    // Timer IRQs serviced within one slice (count = ticks,
                 // cycles = stolen service time).
  kLockHandoff,  // A spinlock passed to a spinner (cycles = spin time).
};

// The name used in reports and tests ("park", "wakeup", ...).
const char* InterferenceKindName(InterferenceKind kind);

struct InterferenceEvent {
  InterferenceKind kind;
  Cycles now = 0;
  int thread_id = -1;
  int cpu = -1;  // CPU involved (dispatch/migrate target), -1 elsewhere.
  // The wait component of park/wakeup/dispatch/handoff events.
  osprof::LayerComponent component = osprof::kLayerSelf;
  Cycles cycles = 0;        // Interval; meaning depends on `kind`.
  std::uint64_t count = 0;  // Tick count of a kTimerTick.
  int node = -1;            // Node the thread belongs to, -1 if unknown.
};

class InterferenceSubscriber {
 public:
  virtual ~InterferenceSubscriber() = default;
  virtual void OnInterference(const InterferenceEvent& event) = 0;
};

class InterferenceChannel {
 public:
  // Installs the hardwired consumers (called once, by the owning Kernel's
  // constructor, before any emit).
  void Bind(RequestContext* context, LockOrderTracker* lock_order,
            RaceTracker* races) {
    context_ = context;
    lock_order_ = lock_order;
    races_ = races;
  }

  // Subscribers receive events in subscription order.  Subscribing is
  // idempotent; both calls are setup-time operations, not hot paths.
  //
  // Mutation during publish is defined (and locked in by tests): a
  // subscriber added from inside a callback does not see the event being
  // fanned out (only later ones); unsubscribing -- yourself or a peer --
  // from inside a callback takes effect immediately (the removed
  // subscriber receives no further callbacks for the current event) and
  // never disturbs delivery to the remaining subscribers.
  void Subscribe(InterferenceSubscriber* subscriber);
  void Unsubscribe(InterferenceSubscriber* subscriber);
  bool has_subscribers() const { return !subscribers_.empty(); }

  // --- Emit points ------------------------------------------------------
  // Called by the scheduler (src/sim/kernel.cc) and the sync primitives
  // (src/sim/sync.cc); tagged WaitQueue users in disk, page cache and the
  // net stack reach them through those primitives.  All inline: with no
  // subscribers each is the pre-channel consumer call plus one branch.

  // A thread parked on a component-tagged wait (semaphore, tagged
  // WaitQueue).  The matching wakeup charges the blocked interval.
  void Park(int thread_id, osprof::LayerComponent component, Cycles now,
            int node = -1) {
    if (!subscribers_.empty()) {
      Publish({InterferenceKind::kPark, now, thread_id, -1, component, 0, 0,
               node});
    }
  }

  // A tagged park ended: charge the blocked interval to the thread's
  // innermost active span as `component`.
  void Wakeup(int thread_id, osprof::LayerComponent component, Cycles waited,
              Cycles now, int node = -1) {
    context_->AttributeWait(thread_id, component, waited);
    if (!subscribers_.empty()) {
      Publish({InterferenceKind::kWakeup, now, thread_id, -1, component,
               waited, 0, node});
    }
  }

  // A runnable thread was placed on CPU `cpu`; `queued` is its
  // runnable-to-running interval (run-queue wait plus the switch itself,
  // §3.3), charged as kLayerRunQueue.
  void Dispatch(int thread_id, Cycles queued, int cpu, bool migrated,
                Cycles now, int node = -1) {
    context_->AttributeWait(thread_id, osprof::kLayerRunQueue, queued);
    if (!subscribers_.empty()) {
      Publish({InterferenceKind::kDispatch, now, thread_id, cpu,
               osprof::kLayerRunQueue, queued, 0, node});
      if (migrated) {
        Publish({InterferenceKind::kMigrate, now, thread_id, cpu,
                 osprof::kLayerSelf, 0, 0, node});
      }
    }
  }

  // Forced preemption at quantum expiry (the event Equation 3 predicts).
  void Preempt(int thread_id, int cpu, Cycles now, int node = -1) {
    if (!subscribers_.empty()) {
      Publish({InterferenceKind::kPreempt, now, thread_id, cpu,
               osprof::kLayerSelf, 0, 0, node});
    }
  }

  // `ticks` timer IRQs will be serviced within the slice starting at
  // `now`, stealing `stolen` cycles from `thread_id`.
  void TimerTicks(int thread_id, std::uint64_t ticks, Cycles stolen,
                  Cycles now, int node = -1) {
    if (!subscribers_.empty()) {
      Publish({InterferenceKind::kTimerTick, now, thread_id, -1,
               osprof::kLayerSelf, stolen, ticks, node});
    }
  }

  // A spinlock was handed to a spinning waiter after `spun` cycles of
  // busy-waiting, charged as lock wait.
  void LockHandoff(int thread_id, Cycles spun, Cycles now, int node = -1) {
    context_->AttributeWait(thread_id, osprof::kLayerLockWait, spun);
    if (!subscribers_.empty()) {
      Publish({InterferenceKind::kLockHandoff, now, thread_id, -1,
               osprof::kLayerLockWait, spun, 0, node});
    }
  }

  // --- Lock graph hooks -------------------------------------------------
  // Forwarded to the trackers unconditionally: the held-lock stacks must
  // stay consistent whether or not anyone analyzes them, and the race
  // tracker's hooks are inline flag tests while disabled.  A lock
  // transfer is also a happens-before edge: release joins the holder's
  // clock into the lock, acquire joins the lock's clock into the taker.

  void LockAcquired(const void* lock, const std::string& name,
                    HeldLockStack& held, int thread_id) {
    lock_order_->OnAcquired(lock, name, held, thread_id);
    races_->OnAcquire(lock, thread_id);
  }

  void LockReleased(const void* lock, HeldLockStack& held, int thread_id) {
    lock_order_->OnReleased(lock, held);
    races_->OnRelease(lock, thread_id);
  }

  // The lock's storage is going away; a lock built at the same address
  // later must not inherit its release history.
  void LockDestroyed(const void* lock) { races_->OnLockDestroyed(lock); }

  // --- Task lifecycle hooks (race detection) ----------------------------
  // Spawn/exit/wake are the scheduler-level happens-before edges: a child
  // inherits its spawner's history, an exit folds into the root clock,
  // a wake carries the waker's history to the wakee.  Negative ids mean
  // kernel context (event callbacks, host code).

  void TaskSpawned(int parent_id, int child_id) {
    races_->OnSpawn(parent_id, child_id);
  }

  void TaskExited(int thread_id) { races_->OnExit(thread_id); }

  void TaskWoken(int waker_id, int wakee_id) {
    races_->OnWake(waker_id, wakee_id);
  }

 private:
  // Out-of-line fan-out; only reached when subscribers exist.
  void Publish(const InterferenceEvent& event);

  RequestContext* context_ = nullptr;
  LockOrderTracker* lock_order_ = nullptr;
  RaceTracker* races_ = nullptr;
  // May hold nullptr tombstones while a publish is in flight (mid-publish
  // unsubscription); compacted when the outermost publish returns.
  std::vector<InterferenceSubscriber*> subscribers_;
  int publish_depth_ = 0;
  bool needs_compaction_ = false;
};

}  // namespace osim

#endif  // OSPROF_SRC_SIM_INTERFERENCE_H_
