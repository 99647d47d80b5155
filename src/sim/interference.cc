#include "src/sim/interference.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace osim {

const char* InterferenceKindName(InterferenceKind kind) {
  switch (kind) {
    case InterferenceKind::kPark:
      return "park";
    case InterferenceKind::kWakeup:
      return "wakeup";
    case InterferenceKind::kDispatch:
      return "dispatch";
    case InterferenceKind::kMigrate:
      return "migrate";
    case InterferenceKind::kPreempt:
      return "preempt";
    case InterferenceKind::kTimerTick:
      return "timer_tick";
    case InterferenceKind::kLockHandoff:
      return "lock_handoff";
  }
  return "unknown";
}

namespace {

// Subscribing and unsubscribing are setup-time calls; from inside a
// callback they would change the list being fanned out.
void RequireNoPublish(int publish_depth, const char* call) {
  if (publish_depth > 0) {
    throw std::logic_error(std::string("InterferenceChannel::") + call +
                           " called during a publish");
  }
}

}  // namespace

void InterferenceChannel::Subscribe(InterferenceSubscriber* subscriber) {
  RequireNoPublish(publish_depth_, "Subscribe");
  if (std::find(subscribers_.begin(), subscribers_.end(), subscriber) ==
      subscribers_.end()) {
    subscribers_.push_back(subscriber);
  }
}

void InterferenceChannel::Unsubscribe(InterferenceSubscriber* subscriber) {
  RequireNoPublish(publish_depth_, "Unsubscribe");
  subscribers_.erase(
      std::remove(subscribers_.begin(), subscribers_.end(), subscriber),
      subscribers_.end());
}

void InterferenceChannel::Publish(const InterferenceEvent& event) {
  // The depth unwinds even if a callback throws.
  struct Depth {
    int& depth;
    ~Depth() { --depth; }
  } in_flight{++publish_depth_};
  for (InterferenceSubscriber* s : subscribers_) {
    s->OnInterference(event);
  }
}

}  // namespace osim
