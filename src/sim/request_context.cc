#include "src/sim/request_context.h"

#include <stdexcept>

namespace osim {

void RequestContext::PopNested(Frame& frame, PopResult& r) {
  // Waits bubble up verbatim; an opaque child's self-CPU is charged to
  // the parent's component for the child's layer class.  A transparent
  // child (kLayerSelf, e.g. the user layer re-wrapping an FS op) lets
  // its self-CPU flow into the parent's self implicitly.  The popped
  // components live in `r` (zero when the child never waited), so this
  // never reads the child's possibly-uninitialized comp[].
  Frame& parent = pool_[frame.below];
  const osprof::LayerComponent cls = frame.owner->cls;
  const bool charges_class =
      cls != osprof::kLayerSelf && r.components[osprof::kLayerSelf] != 0;
  if (!r.self_only || charges_class) {
    TouchWaits(parent);
    for (int c = osprof::kLayerSelf + 1; c < osprof::kNumLayerComponents;
         ++c) {
      parent.comp[c] += r.components[c];
    }
    if (cls != osprof::kLayerSelf) {
      parent.comp[cls] += r.components[osprof::kLayerSelf];
    }
  }
  // Lineage is per-owner: the caller edge must skip frames interleaved
  // by other profilers.
  for (std::uint32_t below = frame.below; below != kNilFrame;
       below = pool_[below].below) {
    if (pool_[below].owner == frame.owner) {
      r.caller = pool_[below].op;
      break;
    }
  }
}

void RequestContext::GrowTops(std::size_t index) {
  tops_.resize(index + 1, kNilFrame);
}

std::uint32_t RequestContext::GrowPool() {
  const auto slot = static_cast<std::uint32_t>(pool_.size());
  pool_.emplace_back();
  return slot;
}

void RequestContext::ThrowNoActiveSpan() {
  throw std::logic_error("RequestContext::Pop with no active span");
}

void RequestContext::Reset() {
  pool_.clear();
  tops_.clear();
  free_head_ = kNilFrame;
}

}  // namespace osim
