// Pins SimDisk's segment cache to a reference model, a block set plus the
// FIFO of runs that filled it: the plainest statement of its semantics.
// Random reads and writes overlap, clamp at the device end, overflow the
// capacity and meet DropCache; every request's cache_hit and the disk's
// totals must match the model.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/sim/disk.h"
#include "src/sim/kernel.h"
#include "src/sim/rng.h"

namespace osim {
namespace {

// The reference: one set entry per cached block; evicting a run erases
// every block it covers, even blocks a later run also covers.
class SetCacheModel {
 public:
  explicit SetCacheModel(const DiskConfig& config) : config_(config) {}

  bool Contains(std::uint64_t lba, std::uint64_t count) const {
    for (std::uint64_t b = lba; b < lba + count; ++b) {
      if (blocks_.count(b) == 0) {
        return false;
      }
    }
    return true;
  }

  void InsertRun(std::uint64_t lba, std::uint64_t count) {
    if (lba + count > config_.num_blocks) {
      count = config_.num_blocks - lba;
    }
    for (std::uint64_t b = lba; b < lba + count; ++b) {
      blocks_.insert(b);
    }
    runs_.emplace_back(lba, count);
    while (blocks_.size() > config_.cache_blocks && !runs_.empty()) {
      const auto [run_lba, run_count] = runs_.front();
      runs_.pop_front();
      for (std::uint64_t b = run_lba; b < run_lba + run_count; ++b) {
        blocks_.erase(b);
      }
    }
  }

  void Drop() {
    blocks_.clear();
    runs_.clear();
  }

 private:
  DiskConfig config_;
  std::unordered_set<std::uint64_t> blocks_;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> runs_;
};

struct Request {
  DiskOp op;
  std::uint64_t lba;
  std::uint64_t count;
  bool drop_first;  // DropCache right before submitting.
};

std::vector<Request> RandomRequests(const DiskConfig& config, int n) {
  Rng rng(2'024);
  std::vector<Request> out;
  std::uint64_t next_sequential = 0;
  for (int i = 0; i < n; ++i) {
    Request r;
    r.op = rng.Chance(0.7) ? DiskOp::kRead : DiskOp::kWrite;
    r.count = 1 + rng.Below(16);
    const std::uint64_t last_start = config.num_blocks - r.count;
    const std::uint64_t shape = rng.Below(10);
    if (shape < 4) {
      r.lba = rng.Below(4'000);  // A hot region: runs overlap.
    } else if (shape < 6) {
      // Near the end: readahead runs are clamped at the device end.
      r.lba = last_start - rng.Below(100);
    } else if (shape < 9 && next_sequential <= last_start) {
      r.lba = next_sequential;  // Sequential: readahead hits.
    } else {
      r.lba = rng.Below(last_start + 1);
    }
    r.drop_first = rng.Below(7'000) == 0;
    next_sequential = r.lba + r.count;
    out.push_back(r);
  }
  return out;
}

TEST(DiskCacheModel, RandomRequestsMatchTheSetModel) {
  KernelConfig kcfg;
  kcfg.num_cpus = 1;
  kcfg.timer_tick_period = 0;
  Kernel k(kcfg);
  DiskConfig config;
  config.num_blocks = 10'000;
  config.blocks_per_track = 100;
  config.cache_blocks = 1'000;
  config.readahead_blocks = 64;
  SimDisk disk(&k, config);
  SetCacheModel model(config);

  const std::vector<Request> requests = RandomRequests(config, 100'000);
  std::vector<bool> expected;
  std::vector<bool> got;
  expected.reserve(requests.size());
  got.reserve(requests.size());
  int drops = 0;
  std::size_t next = 0;
  // One request in flight at a time, each submitted from the previous
  // one's completion, so service order is submission order.
  std::function<void()> submit_next = [&] {
    if (next == requests.size()) {
      return;
    }
    const Request& r = requests[next++];
    if (r.drop_first) {
      disk.DropCache();
      model.Drop();
      ++drops;
    }
    const bool hit = r.op == DiskOp::kRead && model.Contains(r.lba, r.count);
    if (!hit) {
      model.InsertRun(r.lba, r.op == DiskOp::kRead ? config.readahead_blocks
                                                   : r.count);
    }
    expected.push_back(hit);
    disk.Submit(r.op, r.lba, r.count, [&](const DiskRequestInfo& info) {
      got.push_back(info.cache_hit);
      submit_next();
    });
  };
  submit_next();
  k.RunFor(Cycles{1} << 62);

  ASSERT_EQ(got.size(), requests.size());
  EXPECT_GT(drops, 0);
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(got[i], expected[i]) << "request " << i;
    hits += expected[i] ? 1 : 0;
  }
  // The mix exercises both outcomes heavily.
  EXPECT_GT(hits, 10'000u);
  EXPECT_LT(hits, 90'000u);
  EXPECT_EQ(disk.cache_hits(), hits);
  EXPECT_EQ(disk.mechanical_accesses(), requests.size() - hits);
  EXPECT_EQ(disk.requests_completed(), requests.size());
}

TEST(DiskCacheModel, EvictionClearsBlocksALaterRunAlsoHolds) {
  // Capacity 100 blocks: run A = [0, 64), then run B = [32, 96) overlaps
  // it, then run C = [200, 264) pushes the total past the capacity and
  // evicts A, which clears [32, 64) although B still holds it.
  DiskBlockCache cache(/*num_blocks=*/1'000, /*capacity_blocks=*/100);
  cache.InsertRun(0, 64);
  cache.InsertRun(32, 64);
  EXPECT_EQ(cache.cached_blocks(), 96u);
  cache.InsertRun(200, 64);
  EXPECT_EQ(cache.cached_blocks(), 96u);
  EXPECT_FALSE(cache.Contains(32, 1));
  EXPECT_FALSE(cache.Contains(63, 1));
  EXPECT_TRUE(cache.Contains(64, 32));
  EXPECT_TRUE(cache.Contains(200, 64));
  // A run that reaches past the device end is clamped there.
  cache.Clear();
  cache.InsertRun(990, 64);
  EXPECT_EQ(cache.cached_blocks(), 10u);
  EXPECT_TRUE(cache.Contains(990, 10));
  cache.Clear();
  EXPECT_EQ(cache.cached_blocks(), 0u);
  EXPECT_FALSE(cache.Contains(990, 1));
}

}  // namespace
}  // namespace osim
