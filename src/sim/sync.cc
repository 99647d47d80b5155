#include "src/sim/sync.h"

#include <stdexcept>

namespace osim {

bool SimSemaphore::TryAcquire() {
  if (count_ > 0) {
    --count_;
    ++acquisitions_;
    NoteAcquired();
    return true;
  }
  return false;
}

void SimSemaphore::NoteAcquired() {
  SimThread* t = kernel_->current();
  if (t != nullptr) {
    kernel_->channel().LockAcquired(this, name_, t->held_locks_, t->id());
  }
}

void SimSemaphore::NoteReleased() {
  SimThread* t = kernel_->current();
  if (t != nullptr) {
    kernel_->channel().LockReleased(this, t->held_locks_, t->id());
  }
}

void SimSemaphore::ParkAwaitable::await_suspend(std::coroutine_handle<> h) {
  SimSemaphore* s = sem;
  SimThread* t = s->kernel_->current();
  if (t == nullptr) {
    throw std::logic_error("SimSemaphore::Acquire outside thread context");
  }
  t->resume_point_ = h;
  t->state_ = ThreadState::kBlocked;
  t->blocked_since_ = s->kernel_->now();
  t->blocked_component_ = static_cast<int>(osprof::kLayerLockWait);
  s->kernel_->channel().Park(t->id(), osprof::kLayerLockWait,
                             s->kernel_->now(), t->node());
  s->waiters_.PushBack(t);
  s->kernel_->ReleaseCpuOf(t);
}

Task<void> SimSemaphore::Acquire() {
  if (TryAcquire()) {
    co_return;
  }
  const Cycles started = kernel_->now();
  ++contended_;
  // Competitive wakeup: park, then race for the count when woken; a
  // barging acquirer may win, in which case park again (Release always
  // wakes another waiter, so no wakeup is lost).
  do {
    co_await ParkAwaitable{this};
  } while (!TryAcquire());
  const Cycles waited = kernel_->now() - started;
  total_wait_ += waited;
  kernel_->current()->sem_wait_time_ += waited;
}

void SimSemaphore::Release() {
  NoteReleased();
  ++count_;
  if (SimThread* t = waiters_.PopFront()) {
    kernel_->Wake(t);
  }
}

void SimSpinlock::LockAwaitable::await_suspend(std::coroutine_handle<> h) {
  SimSpinlock* l = lock;
  SimThread* t = l->kernel_->current();
  if (t == nullptr) {
    throw std::logic_error("SimSpinlock::Lock outside thread context");
  }
  t->resume_point_ = h;
  t->state_ = ThreadState::kSpinning;
  t->spin_started_ = l->kernel_->now();
  l->waiters_.PushBack(t);
  ++l->contended_;
  // The thread keeps its CPU: it is burning cycles in the spin loop.
}

void SimSpinlock::Unlock() {
  if (!held_) {
    throw std::logic_error("SimSpinlock::Unlock of a free lock");
  }
  NoteReleased();
  if (SimThread* t = waiters_.PopFront()) {
    ++acquisitions_;
    total_spin_ += kernel_->now() - t->spin_started_;
    // Ownership passes directly to the spinner: from the lock graph's
    // point of view, `t` acquires here.
    NoteHandoff(t);
    // The lock stays held; resume the spinner via the event queue to keep
    // resumption non-reentrant.
    Kernel* k = kernel_;
    k->events_.Now([k, t] { k->GrantSpin(t); });
    return;
  }
  held_ = false;
}

void SimSpinlock::NoteAcquired() {
  SimThread* t = kernel_->current();
  if (t != nullptr) {
    kernel_->channel().LockAcquired(this, name_, t->held_locks_, t->id());
  }
}

void SimSpinlock::NoteHandoff(SimThread* to) {
  kernel_->channel().LockAcquired(this, name_, to->held_locks_, to->id());
}

void SimSpinlock::NoteReleased() {
  SimThread* t = kernel_->current();
  if (t != nullptr) {
    kernel_->channel().LockReleased(this, t->held_locks_, t->id());
  }
}

void WaitQueue::WaitAwaitable::await_suspend(std::coroutine_handle<> h) {
  WaitQueue* q = queue;
  SimThread* t = q->kernel_->current();
  if (t == nullptr) {
    throw std::logic_error("WaitQueue::Wait outside thread context");
  }
  t->resume_point_ = h;
  t->state_ = ThreadState::kBlocked;
  if (q->tag_ >= 0) {
    t->blocked_since_ = q->kernel_->now();
    t->blocked_component_ = q->tag_;
    q->kernel_->channel().Park(t->id(),
                               static_cast<osprof::LayerComponent>(q->tag_),
                               q->kernel_->now(), t->node());
  }
  q->waiters_.PushBack(t);
  q->kernel_->ReleaseCpuOf(t);
}

void WaitQueue::WakeOne() {
  if (SimThread* t = waiters_.PopFront()) {
    kernel_->Wake(t);
  }
}

void WaitQueue::WakeAll() {
  while (!waiters_.empty()) {
    WakeOne();
  }
}

}  // namespace osim
