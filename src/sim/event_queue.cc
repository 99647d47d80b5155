#include "src/sim/event_queue.h"

#include <bit>
#include <stdexcept>
#include <utility>

namespace osim {

void EventQueue::At(Cycles when, Action action) {
  if (when < now_) {
    throw std::logic_error("EventQueue: scheduling into the past");
  }
  const int b = std::bit_width(when ^ last_);
  buckets_[static_cast<std::size_t>(b)].emplace_back(when, action);
  if (b > 0) {
    occupied_ |= std::uint64_t{1} << (b - 1);
  }
  ++size_;
}

std::pair<int, Cycles> EventQueue::Lowest() const {
  const int b = std::countr_zero(occupied_) + 1;
  Cycles min = ~Cycles{0};
  for (const Event& e : buckets_[static_cast<std::size_t>(b)]) {
    min = e.when < min ? e.when : min;
  }
  return {b, min};
}

void EventQueue::Redistribute(int b, Cycles min) {
  last_ = min;
  std::vector<Event>& from = buckets_[static_cast<std::size_t>(b)];
  // Every event here agrees with `min` above bit b-1, so each lands in a
  // bucket below b; appending in order keeps every bucket FIFO.
  for (const Event& e : from) {
    const int to = std::bit_width(e.when ^ min);
    buckets_[static_cast<std::size_t>(to)].push_back(e);
    if (to > 0) {
      occupied_ |= std::uint64_t{1} << (to - 1);
    }
  }
  from.clear();
  occupied_ &= ~(std::uint64_t{1} << (b - 1));
}

void EventQueue::Pop() {
  std::vector<Event>& due = buckets_[0];
  // Copy the action out first: running it may append to this bucket and
  // reallocate it.
  Action action = due[head_].action;
  if (++head_ == due.size()) {
    due.clear();
    head_ = 0;
  }
  --size_;
  now_ = last_;
  action();
}

bool EventQueue::Step() {
  if (size_ == 0) {
    return false;
  }
  if (buckets_[0].empty()) {
    const auto [b, min] = Lowest();
    Redistribute(b, min);
  }
  Pop();
  return true;
}

std::uint64_t EventQueue::RunUntil(Cycles until) {
  // Restores the enclosing bound however the loop exits.
  struct BoundScope {
    Cycles& bound;
    Cycles outer;
    ~BoundScope() { bound = outer; }
  } scope{bound_, std::exchange(bound_, until)};
  std::uint64_t executed = 0;
  while (size_ > 0) {
    if (buckets_[0].empty()) {
      // Peek before redistributing: `last_` must not pass `until`, or a
      // later At() between the two would land below the radix base.
      const auto [b, min] = Lowest();
      if (min > until) {
        break;
      }
      Redistribute(b, min);
    } else if (last_ > until) {
      break;
    }
    Pop();
    ++executed;
  }
  if (now_ < until) {
    now_ = until;
  }
  return executed;
}

std::uint64_t EventQueue::RunAll() {
  std::uint64_t executed = 0;
  while (Step()) {
    ++executed;
  }
  return executed;
}

}  // namespace osim
