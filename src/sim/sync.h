// Simulated kernel synchronization primitives.
//
// The case studies of the paper hinge on these: the clone profile's second
// peak (Figure 1) is a sleeping-lock contention, the llseek pathology
// (Figure 6) is the shared i_sem inode semaphore, and Reiserfs' stripes
// (Figure 9) come from write_super holding a coarse lock.
//
//  * SimSemaphore -- a counted sleeping semaphore (count 1 == a kernel
//    mutex like Linux's i_sem).  Waiters block off-CPU; their wait time is
//    pure twait.
//  * SimSpinlock -- waiters burn CPU while waiting; their wait time counts
//    into tcpu, exactly the paper's Equation 1 decomposition.
//  * WaitQueue -- bare parking lot for condition-style waits (page locks,
//    I/O completion).
//
// Every waiter list is a WaiterList: a FIFO linked through the waiting
// SimThread itself, the way a Linux task parks on a wait-queue entry it
// carries.  Constructing a primitive, waiting on it and waking from it
// allocate nothing, so a primitive is cheap enough to hold by value in a
// page or an RPC.
//
// Like real kernel primitives these are *not* RAII by default -- simulated
// code acquires and releases explicitly, which keeps the profiled critical
// sections visible -- but a ScopedSemaphore helper exists for exception
// safety in straight-line paths.

#ifndef OSPROF_SRC_SIM_SYNC_H_
#define OSPROF_SRC_SIM_SYNC_H_

#include <coroutine>
#include <cstdint>
#include <string>

#include "src/sim/kernel.h"

namespace osim {

// A FIFO of threads blocked or spinning on one primitive, linked through
// SimThread::wait_next_.  A thread is on at most one list; PopFront
// clears its link before the caller wakes it.
class WaiterList {
 public:
  bool empty() const { return head_ == nullptr; }
  int size() const { return size_; }

  void PushBack(SimThread* t) {
    if (tail_ == nullptr) {
      head_ = t;
    } else {
      tail_->wait_next_ = t;
    }
    tail_ = t;
    ++size_;
  }

  // Removes and returns the oldest waiter, or nullptr when empty.
  SimThread* PopFront() {
    SimThread* t = head_;
    if (t != nullptr) {
      head_ = t->wait_next_;
      if (head_ == nullptr) {
        tail_ = nullptr;
      }
      t->wait_next_ = nullptr;
      --size_;
    }
    return t;
  }

 private:
  SimThread* head_ = nullptr;
  SimThread* tail_ = nullptr;
  int size_ = 0;
};

// A counted sleeping semaphore.  Acquire is an awaitable coroutine;
// Release is a plain call (never blocks).
//
// Wakeup is competitive ("barging"), like Linux semaphores and FreeBSD
// sleep mutexes: Release increments the count and wakes the first waiter,
// but a running thread that calls Acquire before the woken waiter is
// scheduled may take the semaphore first.  Direct FIFO handoff would let
// a woken-but-unscheduled waiter hold the lock across its entire
// run-queue wait, forming convoys no real kernel exhibits.
class SimSemaphore {
 public:
  SimSemaphore(Kernel* kernel, int count, std::string name = "sem")
      : kernel_(kernel), count_(count), name_(std::move(name)) {}

  // The kernel must outlive the semaphore: SimRace forgets its clock here.
  ~SimSemaphore() { kernel_->channel().LockDestroyed(this); }

  SimSemaphore(const SimSemaphore&) = delete;
  SimSemaphore& operator=(const SimSemaphore&) = delete;

  // co_await sem.Acquire(): takes the semaphore, blocking off-CPU while
  // the count is exhausted.
  Task<void> Acquire();

  // Non-blocking attempt; returns true on success.
  bool TryAcquire();

  void Release();

  int count() const { return count_; }
  int waiters() const { return waiters_.size(); }
  const std::string& name() const { return name_; }

  // Contention statistics.
  std::uint64_t acquisitions() const { return acquisitions_; }
  std::uint64_t contended_acquisitions() const { return contended_; }
  Cycles total_wait_time() const { return total_wait_; }

 private:
  // Parks the calling thread on the wait list until a Release wakes it.
  struct ParkAwaitable {
    SimSemaphore* sem;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };

  // Held-lock stack upkeep for the lock-order tracker (no-ops outside
  // thread context; edge recording further gated by the tracker's
  // enabled flag).
  void NoteAcquired();
  void NoteReleased();

  Kernel* kernel_;
  int count_;
  std::string name_;
  WaiterList waiters_;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t contended_ = 0;
  Cycles total_wait_ = 0;
};

// RAII guard over a SimSemaphore for coroutine scopes:
//   ScopedSemaphore guard(&sem);
//   co_await guard.Lock();
//   ...                        // released when guard leaves scope
class ScopedSemaphore {
 public:
  explicit ScopedSemaphore(SimSemaphore* sem) : sem_(sem) {}
  ScopedSemaphore(const ScopedSemaphore&) = delete;
  ScopedSemaphore& operator=(const ScopedSemaphore&) = delete;
  ~ScopedSemaphore() {
    if (held_) {
      sem_->Release();
    }
  }

  [[nodiscard]] auto Lock() {
    held_ = true;
    return sem_->Acquire();
  }

  void Unlock() {
    if (held_) {
      held_ = false;
      sem_->Release();
    }
  }

 private:
  SimSemaphore* sem_;
  bool held_ = false;
};

// A spinlock: contended waiters keep their CPU and burn cycles until the
// holder releases.  Spin time is charged to the waiter's CPU time and
// quantum, making it part of tcpu as in Equation 1.
class SimSpinlock {
 public:
  explicit SimSpinlock(Kernel* kernel, std::string name = "spinlock")
      : kernel_(kernel), name_(std::move(name)) {}

  // The kernel must outlive the lock, as for SimSemaphore.
  ~SimSpinlock() { kernel_->channel().LockDestroyed(this); }

  SimSpinlock(const SimSpinlock&) = delete;
  SimSpinlock& operator=(const SimSpinlock&) = delete;

  auto Lock() { return LockAwaitable{this}; }
  void Unlock();

  bool held() const { return held_; }
  std::uint64_t acquisitions() const { return acquisitions_; }
  std::uint64_t contended_acquisitions() const { return contended_; }
  Cycles total_spin_time() const { return total_spin_; }

 private:
  struct LockAwaitable {
    SimSpinlock* lock;
    bool await_ready() const {
      if (!lock->held_) {
        lock->held_ = true;
        ++lock->acquisitions_;
        lock->NoteAcquired();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };

  // Lock-order tracking hooks; see SimSemaphore.
  void NoteAcquired();
  void NoteHandoff(SimThread* to);
  void NoteReleased();

  Kernel* kernel_;
  std::string name_;
  bool held_ = false;
  WaiterList waiters_;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t contended_ = 0;
  Cycles total_spin_ = 0;
};

// A parking lot for condition-style waits.  Callers loop on their
// predicate:  while (!ready) co_await queue.Wait();
//
// A queue constructed with a LayerComponent tag charges its parks to the
// waiter's innermost profiled span as that component (disk completion
// queues tag kLayerDriver, RPC reply queues tag kLayerNet); untagged
// queues leave the wait in the span's self time.
class WaitQueue {
 public:
  explicit WaitQueue(Kernel* kernel) : kernel_(kernel) {}
  WaitQueue(Kernel* kernel, osprof::LayerComponent tag)
      : kernel_(kernel), tag_(static_cast<int>(tag)) {}

  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  auto Wait() { return WaitAwaitable{this}; }

  void WakeOne();
  void WakeAll();

  int waiters() const { return waiters_.size(); }

 private:
  struct WaitAwaitable {
    WaitQueue* queue;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };

  Kernel* kernel_;
  int tag_ = -1;
  WaiterList waiters_;
};

}  // namespace osim

#endif  // OSPROF_SRC_SIM_SYNC_H_
