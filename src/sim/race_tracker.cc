#include "src/sim/race_tracker.h"

#include <algorithm>
#include <iterator>

#include "src/sim/kernel.h"
#include "src/sim/request_context.h"

namespace osim {
namespace {

// Renders one side of a report: "write cell@func (op name [layer])", or
// "(no op)" for accesses outside any profiled span.
std::string Describe(const char* cell_name, const RaceAccess& access) {
  std::string s = access.is_write ? "write " : "read ";
  s += cell_name;
  s += '@';
  s += access.func != nullptr ? access.func : "?";
  if (access.ops != nullptr && access.op != osprof::kInvalidOpId) {
    s += " (op ";
    s += access.ops->Name(access.op);
    s += " [";
    s += osprof::LayerComponentName(access.cls);
    s += "])";
  } else {
    s += " (no op)";
  }
  return s;
}

// The first entry of a sorted sparse clock at or after `tid`.
template <typename Entries>
auto Seek(Entries& above, int tid) {
  return std::lower_bound(above.begin(), above.end(), tid,
                          [](const RaceEpoch& e, int t) { return e.tid < t; });
}

}  // namespace

RaceTracker& RaceTrackerOf(Kernel& kernel) { return kernel.races(); }

int RaceTracker::CurrentTid() const {
  if (kernel_ == nullptr) {
    return -1;
  }
  const SimThread* t = kernel_->current();
  return t != nullptr ? t->id() : -1;
}

std::uint32_t RaceTracker::RootAt(int tid, std::uint32_t version) const {
  const auto index = static_cast<std::size_t>(tid);
  if (index >= root_.size()) {
    return 0;
  }
  // The last stamp at or before `version`.
  const std::vector<RootStamp>& history = root_[index];
  const auto after =
      std::upper_bound(history.begin(), history.end(), version,
                       [](std::uint32_t v, const RootStamp& stamp) {
                         return v < stamp.version;
                       });
  return after == history.begin() ? 0 : std::prev(after)->epoch;
}

std::uint32_t RaceTracker::EntryOf(const RaceClock& clock, int tid) const {
  const auto it = Seek(clock.above, tid);
  if (it != clock.above.end() && it->tid == tid) {
    return it->epoch;
  }
  return RootAt(tid, clock.version);
}

void RaceTracker::Join(RaceClock& into, const RaceClock& from) {
  if (from.above.empty() && from.version <= into.version) {
    return;  // `into` already knows the older root.
  }
  // The result rests on the newer root.  The side that rested on the
  // older one keeps only the entries the newer root does not cover, so
  // a clock carries what its root cannot tell, and no more.
  const std::uint32_t version = std::max(into.version, from.version);
  const auto kept = [&](const RaceClock& side, const RaceEpoch& e) {
    return side.version == version || e.epoch > RootAt(e.tid, version);
  };
  merged_.clear();
  auto i = into.above.begin();
  auto f = from.above.begin();
  while (i != into.above.end() || f != from.above.end()) {
    if (f == from.above.end() ||
        (i != into.above.end() && i->tid < f->tid)) {
      if (kept(into, *i)) {
        merged_.push_back(*i);
      }
      ++i;
    } else if (i == into.above.end() || f->tid < i->tid) {
      if (kept(from, *f)) {
        merged_.push_back(*f);
      }
      ++f;
    } else {
      // Above the newer root already: the newer side's entry is.
      merged_.push_back({i->tid, std::max(i->epoch, f->epoch)});
      ++i;
      ++f;
    }
  }
  into.version = version;
  into.above.swap(merged_);
}

void RaceTracker::Tick(RaceClock& clock, int tid) const {
  const auto it = Seek(clock.above, tid);
  if (it != clock.above.end() && it->tid == tid) {
    ++it->epoch;
    return;
  }
  clock.above.insert(it, {tid, RootAt(tid, clock.version) + 1});
}

RaceClock& RaceTracker::ClockOf(int tid) {
  const auto index = static_cast<std::size_t>(tid);
  if (index >= clocks_.size()) {
    clocks_.resize(index + 1);
  }
  RaceClock& c = clocks_[index];
  if (c.above.empty()) {
    // First sighting (a task spawned before the tracker was enabled):
    // seed its epoch so accesses are distinguishable from "never ran".
    // A live clock always holds its own entry (every send ticks it past
    // what the receiver saw, so no root covers it); an empty clock is a
    // task with none.
    c.above.push_back({tid, 1});
  }
  return c;
}

const RaceClock& RaceTracker::KernelClock() {
  kernel_clock_.version = root_version_;
  kernel_clock_.above.clear();
  for (const RaceClock& token : adopted_) {
    Join(kernel_clock_, token);
  }
  return kernel_clock_;
}

void RaceTracker::SpawnSlow(int parent, int child) {
  if (child < 0) {
    return;
  }
  if (parent < 0) {
    // Kernel/host context: the child inherits everything that finished
    // plus whatever completion history was adopted around this callback.
    const RaceClock& base = KernelClock();
    Join(ClockOf(child), base);
    return;
  }
  ClockOf(child);
  RaceClock& p = ClockOf(parent);
  Join(clocks_[static_cast<std::size_t>(child)], p);
  // The spawn is a send: the parent's later work is not ordered before
  // anything the child does.
  Tick(p, parent);
}

void RaceTracker::ExitSlow(int tid) {
  const auto index = static_cast<std::size_t>(tid);
  if (index >= clocks_.size() || clocks_[index].above.empty()) {
    return;
  }
  // Join the clock into the root: only entries above its root can be
  // news, since the root it rests on is part of today's.
  bool grew = false;
  for (const RaceEpoch& e : clocks_[index].above) {
    const auto t = static_cast<std::size_t>(e.tid);
    if (t >= root_.size()) {
      root_.resize(t + 1);
    }
    std::vector<RootStamp>& history = root_[t];
    if (history.empty() || history.back().epoch < e.epoch) {
      history.push_back({root_version_ + 1, e.epoch});
      grew = true;
    }
  }
  if (grew) {
    ++root_version_;
  }
  clocks_[index] = RaceClock{};
}

void RaceTracker::WakeSlow(int waker, int wakee) {
  if (wakee < 0) {
    return;
  }
  if (waker < 0) {
    const RaceClock& base = KernelClock();
    Join(ClockOf(wakee), base);
    return;
  }
  // Both clocks exist before either is referenced: seeding the waker's
  // can grow clocks_.
  ClockOf(wakee);
  RaceClock& w = ClockOf(waker);
  Join(clocks_[static_cast<std::size_t>(wakee)], w);
  Tick(w, waker);
}

void RaceTracker::AcquireSlow(const void* lock, int tid) {
  auto it = locks_.find(lock);
  if (it != locks_.end()) {
    Join(ClockOf(tid), it->second);
  }
}

void RaceTracker::ReleaseSlow(const void* lock, int tid) {
  RaceClock& c = ClockOf(tid);
  Join(locks_[lock], c);
  Tick(c, tid);
}

RaceClock RaceTracker::CaptureSlow() {
  const int tid = CurrentTid();
  if (tid >= 0) {
    RaceClock& c = ClockOf(tid);
    RaceClock token = c;
    // The capture is a send: post-submit work must not look ordered
    // before the completion that adopts this token.
    Tick(c, tid);
    return token;
  }
  // Kernel context (a completion chaining into another submit): forward
  // the already-adopted history.
  return KernelClock();
}

bool RaceTracker::OrderedBefore(const RaceAccess& access, int tid,
                                const RaceClock& now) const {
  if (access.tid == tid) {
    return true;  // Program order.
  }
  return access.clock <= EntryOf(now, access.tid);
}

RaceAccess RaceTracker::MakeAccess(int tid, const char* func,
                                   bool is_write) const {
  RaceAccess access;
  access.tid = tid;
  access.clock = 0;  // Filled by the caller from the task's own epoch.
  access.is_write = is_write;
  access.func = func;
  if (context_ != nullptr) {
    context_->TopSpan(tid, &access.ops, &access.op, &access.cls);
  }
  return access;
}

void RaceTracker::Report(const char* cell_name, const RaceAccess& prior,
                         const RaceAccess& current) {
  ++racy_accesses_;
  std::string a = Describe(cell_name, prior);
  std::string b = Describe(cell_name, current);
  if (b < a) {
    std::swap(a, b);
  }
  ++reports_[{std::move(a), std::move(b)}];
}

void RaceTracker::OnSharedAccess(RaceCellState* cell, const char* cell_name,
                                 const char* func, bool is_write) {
  const int tid = CurrentTid();
  if (tid < 0) {
    // Kernel context: event callbacks and host-side setup/introspection
    // are scheduler-atomic by construction, never racy.
    return;
  }
  if (cell->generation != generation_) {
    *cell = RaceCellState{};
    cell->generation = generation_;
  }
  if (!cell->registered) {
    cell->registered = true;
    ++cells_tracked_;
  }
  ++accesses_checked_;

  const RaceClock& now = ClockOf(tid);
  RaceAccess current = MakeAccess(tid, func, is_write);
  current.clock = EntryOf(now, tid);

  if (cell->has_write && !OrderedBefore(cell->last_write, tid, now)) {
    Report(cell_name, cell->last_write, current);
  }
  if (is_write) {
    for (const auto& [reader, read] : cell->reads) {
      if (!OrderedBefore(read, tid, now)) {
        Report(cell_name, read, current);
      }
    }
    cell->last_write = current;
    cell->has_write = true;
    cell->reads.clear();
    return;
  }
  // A read: remember the latest read per thread since the last write.
  cell->reads.insert_or_assign(tid, current);
}

std::vector<std::string> RaceTracker::ReportDescriptions() const {
  std::vector<std::string> out;
  out.reserve(reports_.size());
  for (const auto& [key, count] : reports_) {
    out.push_back("data race: " + key.first + " vs " + key.second);
  }
  return out;
}

std::uint64_t RaceTracker::clock_entries() const {
  std::uint64_t entries = 0;
  for (const std::vector<RootStamp>& history : root_) {
    entries += history.size();
  }
  for (const RaceClock& c : clocks_) {
    entries += c.above.size();
  }
  for (const auto& [lock, c] : locks_) {
    entries += c.above.size();
  }
  for (const RaceClock& c : adopted_) {
    entries += c.above.size();
  }
  return entries;
}

void RaceTracker::Reset() {
  clocks_.clear();
  root_.clear();
  adopted_.clear();
  locks_.clear();
  reports_.clear();
  racy_accesses_ = 0;
  accesses_checked_ = 0;
  cells_tracked_ = 0;
  ++generation_;
}

}  // namespace osim
