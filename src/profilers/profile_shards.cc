#include "src/profilers/profile_shards.h"

#include <string_view>

namespace osprofilers {

ShardedProfileArena::ShardedProfileArena(osprof::ProfileSet* base,
                                         osprof::LayeredProfileSet* base_layered,
                                         int num_shards)
    : base_(base), base_layered_(base_layered) {
  if (num_shards < 1) {
    num_shards = 1;
  }
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards_.emplace_back(base_->resolution());
  }
  // Replay the base table into every shard in id order, so ids already
  // handed out as ProbeHandles index the shards too.  Resolve() interns
  // without declaring, so replay leaves the shards serially empty.
  const osprof::OpTable& ops = base_->ops();
  for (osprof::OpId id = 0; id < static_cast<osprof::OpId>(ops.size());
       ++id) {
    const std::string& name = ops.Name(id);
    for (Shard& shard : shards_) {
      shard.profiles.Resolve(name);
      shard.layered_slots.push_back(nullptr);
    }
  }
}

void ShardedProfileArena::OnResolve(std::string_view op) {
  for (Shard& shard : shards_) {
    shard.profiles.Resolve(op);
    shard.layered_slots.resize(base_->ops().size(), nullptr);
  }
}

void ShardedProfileArena::FlushShards() {
  for (Shard& shard : shards_) {
    base_->Merge(shard.profiles);
    shard.profiles.ClearCounts();
    base_layered_->Merge(shard.layered);
    shard.layered.ClearCounts();
  }
  ++flushes_;
}

void ShardedProfileArena::MergeResidueInto(osprof::ProfileSet* profiles) const {
  for (const Shard& shard : shards_) {
    profiles->Merge(shard.profiles);
  }
}

void ShardedProfileArena::MergeLayeredResidueInto(
    osprof::LayeredProfileSet* layered) const {
  for (const Shard& shard : shards_) {
    layered->Merge(shard.layered);
  }
}

void ShardedProfileArena::ClearCounts() {
  for (Shard& shard : shards_) {
    shard.profiles.ClearCounts();
    shard.layered.ClearCounts();
  }
}

}  // namespace osprofilers
