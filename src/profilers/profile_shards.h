// Per-CPU profile shards with epoch-boundary merging (paper §4's lock-free
// per-thread update policies, scaled to real sharded arenas).
//
// A ShardedProfileArena gives every simulated CPU a private ProfileSet +
// LayeredProfileSet shard.  A task records only on the CPU it is currently
// running on, and the whole simulation lives on one host thread, so shard
// updates are lock-free by construction: no CAS, no atomics, no false
// sharing between simulated CPUs' counters.  Shards fold into the base
// sets through the existing associative/commutative Merge at epoch
// boundaries (and at collection), exactly the Atys-style "cheap per-CPU
// aggregation merged off the hot path".
//
// Identity discipline: all interning goes through Resolve(), which interns
// into the base set and every shard in the same order, so one dense OpId
// indexes all of them.  Because histogram and layered-component merging is
// pure integer addition, the flushed base sets -- and therefore their
// serialized bytes -- are identical to unsharded recording for ANY shard
// count and ANY epoch length.  That invariant is what keeps the committed
// golden corpus byte-stable when scenarios turn sharding on, and it is
// asserted directly by tests/profilers/profile_shards_test.cc.

#ifndef OSPROF_SRC_PROFILERS_PROFILE_SHARDS_H_
#define OSPROF_SRC_PROFILERS_PROFILE_SHARDS_H_

#include <cstddef>
#include <string_view>
#include <vector>

#include "src/core/layered.h"
#include "src/core/op_table.h"
#include "src/core/profile.h"

namespace osprofilers {

using osprof::Cycles;

class ShardedProfileArena {
 public:
  // Shards record on behalf of externally-owned base sets (the profiler's
  // own ProfileSet/LayeredProfileSet); both must outlive the arena.  Ops
  // already interned in `base` are re-interned into every shard in id
  // order, so arenas can be attached after probe handles were resolved.
  ShardedProfileArena(osprof::ProfileSet* base,
                      osprof::LayeredProfileSet* base_layered, int num_shards);

  int num_shards() const { return static_cast<int>(shards_.size()); }

  // Mirrors a base-set interning into every shard.  Must be called (by the
  // owning profiler) for every op before it is recorded under its id.
  void OnResolve(std::string_view op);

  // --- Hot paths: one indexed shard, no locks ----------------------------

  void AddById(int shard, osprof::OpId id, Cycles latency) {
    shards_[static_cast<std::size_t>(shard)].profiles.AddById(id, latency);
  }

  void AddById(int shard, osprof::OpId id, int bucket, Cycles latency) {
    shards_[static_cast<std::size_t>(shard)].profiles.AddById(id, bucket,
                                                              latency);
  }

  void AddLayered(int shard, osprof::OpId id, int bucket,
                  const Cycles components[osprof::kNumLayerComponents]) {
    LayeredSlot(shard, id)->Add(bucket, components);
  }

  void AddLayeredSelfOnly(int shard, osprof::OpId id, int bucket,
                          Cycles self) {
    LayeredSlot(shard, id)->AddSelfOnly(bucket, self);
  }

  // --- Epoch boundary ----------------------------------------------------

  // Folds every shard into the base sets and zeroes the shards in place
  // (cached slot pointers stay valid).  Safe to call at any frequency:
  // merging is pure integer addition, so the base totals after the final
  // flush do not depend on how many epochs the run was sliced into.
  void FlushShards();

  // Number of FlushShards() calls so far (epoch accounting for tests and
  // memory reports).
  std::uint64_t flushes() const { return flushes_; }

  // Non-destructive residue merge: adds everything recorded since the last
  // flush into `profiles` / `layered` without touching the shards.  Used
  // by Collect(), which must not mutate the profiler's state.
  void MergeResidueInto(osprof::ProfileSet* profiles) const;
  void MergeLayeredResidueInto(osprof::LayeredProfileSet* layered) const;

  // Zeroes all shards without merging (profiler Reset).
  void ClearCounts();

 private:
  struct Shard {
    osprof::ProfileSet profiles;
    osprof::LayeredProfileSet layered;
    // OpId -> cached layered slot (node-stable; survives ClearCounts).
    std::vector<osprof::LayeredProfile*> layered_slots;

    explicit Shard(int resolution)
        : profiles(resolution), layered(resolution) {}
  };

  osprof::LayeredProfile* LayeredSlot(int shard, osprof::OpId id) {
    Shard& s = shards_[static_cast<std::size_t>(shard)];
    osprof::LayeredProfile*& slot =
        s.layered_slots[static_cast<std::size_t>(id)];
    if (slot == nullptr) {
      slot = s.layered.Slot(base_->ops().Name(id));
    }
    return slot;
  }

  osprof::ProfileSet* base_;
  osprof::LayeredProfileSet* base_layered_;
  std::vector<Shard> shards_;
  std::uint64_t flushes_ = 0;
};

}  // namespace osprofilers

#endif  // OSPROF_SRC_PROFILERS_PROFILE_SHARDS_H_
