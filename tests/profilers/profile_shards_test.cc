// The sharded-arena invariant of profile_shards.h: for ANY shard count,
// ANY epoch slicing, and ANY record interleaving, the flushed base sets
// serialize byte-identically to unsharded recording.  This is the property
// that lets scenarios turn per-CPU sharding on without moving a byte of
// the committed golden corpus.

#include "src/profilers/profile_shards.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/core/layered.h"
#include "src/core/profile.h"
#include "src/profilers/sim_profiler.h"

namespace osprofilers {
namespace {

using osprof::LayeredProfileSet;
using osprof::ProbeHandle;
using osprof::ProfileSet;

// A deterministic pseudo-workload: op index, latency and a layered bucket
// for each record, reproducible in any shard/epoch arrangement.
struct Rec {
  int op;
  Cycles latency;
};

std::vector<Rec> MakeRecords(int count) {
  std::vector<Rec> recs;
  recs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    recs.push_back(Rec{i % 3, static_cast<Cycles>(37 + 113 * (i % 97))});
  }
  return recs;
}

const char* OpName(int op) {
  static const char* kNames[] = {"read", "write", "llseek"};
  return kNames[op];
}

std::string LayeredString(const LayeredProfileSet& set) {
  std::map<std::string, LayeredProfileSet> layers;
  layers.emplace("fs", set);
  return osprof::LayersToString(layers);
}

// Records `recs` round-robin over `num_shards` shards, flushing every
// `epoch` records (0 = only at the end).  Returns the serialized base.
std::pair<std::string, std::string> RunSharded(const std::vector<Rec>& recs,
                                               int num_shards, int epoch) {
  ProfileSet base(1);
  LayeredProfileSet base_layered(1);
  ShardedProfileArena arena(&base, &base_layered, num_shards);
  std::vector<ProbeHandle> handles;
  for (int op = 0; op < 3; ++op) {
    handles.push_back(base.Resolve(OpName(op)));
    arena.OnResolve(OpName(op));
  }
  int since_flush = 0;
  int shard = 0;
  for (const Rec& r : recs) {
    const ProbeHandle& h = handles[static_cast<std::size_t>(r.op)];
    arena.AddById(shard, h.id(), r.latency);
    arena.AddLayeredSelfOnly(shard, h.id(),
                             osprof::BucketIndex(r.latency),
                             r.latency);
    shard = (shard + 1) % num_shards;
    if (epoch > 0 && ++since_flush == epoch) {
      arena.FlushShards();
      since_flush = 0;
    }
  }
  arena.FlushShards();
  return {base.ToString(), LayeredString(base_layered)};
}

// The unsharded reference: the same records straight into the base sets.
std::pair<std::string, std::string> RunUnsharded(const std::vector<Rec>& recs) {
  ProfileSet base(1);
  LayeredProfileSet base_layered(1);
  for (const Rec& r : recs) {
    const ProbeHandle h = base.Resolve(OpName(r.op));
    base.AddById(h.id(), r.latency);
    base_layered.Slot(OpName(r.op))
        ->AddSelfOnly(osprof::BucketIndex(r.latency), r.latency);
  }
  return {base.ToString(), LayeredString(base_layered)};
}

TEST(ShardedProfileArena, ByteIdenticalForAnyShardCount) {
  const std::vector<Rec> recs = MakeRecords(4000);
  const auto reference = RunUnsharded(recs);
  for (const int shards : {1, 4, 64}) {
    const auto sharded = RunSharded(recs, shards, 0);
    EXPECT_EQ(sharded.first, reference.first) << shards << " shards";
    EXPECT_EQ(sharded.second, reference.second) << shards << " shards";
  }
}

TEST(ShardedProfileArena, ByteIdenticalForAnyEpochLength) {
  const std::vector<Rec> recs = MakeRecords(4000);
  const auto reference = RunUnsharded(recs);
  for (const int epoch : {1, 7, 100, 4000}) {
    const auto sharded = RunSharded(recs, 8, epoch);
    EXPECT_EQ(sharded.first, reference.first) << "epoch " << epoch;
    EXPECT_EQ(sharded.second, reference.second) << "epoch " << epoch;
  }
}

TEST(ShardedProfileArena, MergeIsCommutativeOverShardAssignment) {
  // The same multiset of records, dealt to shards in opposite orders and
  // recorded back-to-front: totals are sums, so the bytes cannot move.
  const std::vector<Rec> recs = MakeRecords(1000);
  ProfileSet base_a(1), base_b(1);
  LayeredProfileSet layered_a(1), layered_b(1);
  ShardedProfileArena arena_a(&base_a, &layered_a, 4);
  ShardedProfileArena arena_b(&base_b, &layered_b, 4);
  for (int op = 0; op < 3; ++op) {
    base_a.Resolve(OpName(op));
    arena_a.OnResolve(OpName(op));
    base_b.Resolve(OpName(op));
    arena_b.OnResolve(OpName(op));
  }
  const int n = static_cast<int>(recs.size());
  for (int i = 0; i < n; ++i) {
    const Rec& fwd = recs[static_cast<std::size_t>(i)];
    const Rec& rev = recs[static_cast<std::size_t>(n - 1 - i)];
    arena_a.AddById(i % 4, base_a.Resolve(OpName(fwd.op)).id(), fwd.latency);
    arena_b.AddById(3 - i % 4, base_b.Resolve(OpName(rev.op)).id(),
                    rev.latency);
  }
  arena_a.FlushShards();
  arena_b.FlushShards();
  EXPECT_EQ(base_a.ToString(), base_b.ToString());
}

TEST(ShardedProfileArena, ResidueMergeIsNonDestructiveAndExact) {
  ProfileSet base(1);
  LayeredProfileSet base_layered(1);
  ShardedProfileArena arena(&base, &base_layered, 2);
  const ProbeHandle read = base.Resolve("read");
  arena.OnResolve("read");
  arena.AddById(0, read.id(), 100);
  arena.AddById(1, read.id(), 200);

  ProfileSet snap1 = base;
  arena.MergeResidueInto(&snap1);
  ProfileSet snap2 = base;
  arena.MergeResidueInto(&snap2);
  // Two residue merges from untouched shards agree with each other and
  // with the eventual flush.
  EXPECT_EQ(snap1.ToString(), snap2.ToString());
  EXPECT_EQ(snap1.Find("read")->total_operations(), 2u);
  EXPECT_EQ(snap1.Find("read")->total_latency(), 300u);
  EXPECT_TRUE(base.empty());  // Residue merging never touched the base.

  arena.FlushShards();
  EXPECT_EQ(base.ToString(), snap1.ToString());
  EXPECT_EQ(arena.flushes(), 1u);
}

TEST(ShardedProfileArena, LateResolvePropagatesToAllShards) {
  ProfileSet base(1);
  LayeredProfileSet base_layered(1);
  const ProbeHandle early = base.Resolve("early");
  // Arena attached after `early` was interned; `late` arrives afterwards.
  ShardedProfileArena arena(&base, &base_layered, 3);
  const ProbeHandle late = base.Resolve("late");
  arena.OnResolve("late");
  arena.AddById(0, early.id(), 10);
  arena.AddById(2, late.id(), 20);
  arena.FlushShards();
  EXPECT_EQ(base.Find("early")->total_latency(), 10u);
  EXPECT_EQ(base.Find("late")->total_latency(), 20u);
}

// End to end through SimProfiler: a multi-CPU simulation with sharding on
// collects the same bytes as the identical simulation with sharding off,
// with and without epoch flushing.
TEST(ShardedProfileArena, SimProfilerShardedCollectMatchesUnsharded) {
  const auto run = [](bool sharded, Cycles epoch) {
    osim::KernelConfig cfg;
    cfg.num_cpus = 4;
    cfg.context_switch_cost = 120;
    cfg.seed = 9;
    osim::Kernel kernel(cfg);
    SimProfiler prof(&kernel);
    if (sharded) {
      prof.EnableSharding(epoch);
    }
    const ProbeHandle op = prof.Resolve("op");
    for (int t = 0; t < 8; ++t) {
      kernel.Spawn("w", [](osim::Kernel* k, SimProfiler* p,
                           ProbeHandle h) -> osim::Task<void> {
        for (int i = 0; i < 200; ++i) {
          co_await p->Wrap(h, [](osim::Kernel* kk) -> osim::Task<void> {
            co_await kk->Cpu(700);
          }(k));
        }
      }(&kernel, &prof, op));
    }
    kernel.RunUntilThreadsFinish();
    std::map<std::string, LayeredProfileSet> layers;
    layers.emplace("fs", *prof.layered());
    return prof.Collect().ToString() + osprof::LayersToString(layers);
  };
  const std::string reference = run(false, 0);
  EXPECT_EQ(run(true, 0), reference);
  EXPECT_EQ(run(true, 50'000), reference);
  EXPECT_EQ(run(true, 1'000'000), reference);
}

}  // namespace
}  // namespace osprofilers
