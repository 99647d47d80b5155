// Runner-level properties of the layered decomposition: parallel merges
// are bit-identical, layered counts agree with the profile histograms,
// and the fig07 acceptance criterion -- the readdir peaks decompose into
// pure self-CPU (peak 1) vs driver-dominated (peak 4) -- holds.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/core/layered.h"
#include "src/core/peaks.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "src/tools/scenario_front_end.h"
#include "tests/runner/runner_test_util.h"

namespace osrunner {
namespace {

TEST(LayeredRunnerTest, ParallelMergeIsByteIdenticalToSerial) {
  RunOptions serial;
  serial.trials = 4;
  serial.jobs = 1;
  RunOptions parallel = serial;
  parallel.jobs = 8;
  const std::string a = osprof::LayersToString(
      ostools::MergedLayers(RunScenario(Builtin("fig06"), serial)));
  const std::string b = osprof::LayersToString(
      ostools::MergedLayers(RunScenario(Builtin("fig06"), parallel)));
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// Every golden file, .prof included, not only the .layers above: trial
// profiles are merged in trial order regardless of which worker finished
// first, so the serialized bytes cannot depend on the jobs value.
TEST(LayeredRunnerTest, ParallelProfSerializationIsByteIdenticalToSerial) {
  RunOptions serial;
  serial.trials = 4;
  serial.jobs = 1;
  RunOptions parallel = serial;
  parallel.jobs = 8;
  const std::string a = GoldenText(RunScenario(Builtin("fig06"), serial));
  const std::string b = GoldenText(RunScenario(Builtin("fig06"), parallel));
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(LayeredRunnerTest, LayeredCountsMatchProfileHistograms) {
  RunOptions options;
  options.trials = 2;
  const RunResult result = RunScenario(Builtin("fig06"), options);
  int checked_ops = 0;
  for (const auto& [layer, lr] : result.layers) {
    if (lr.layered.empty()) {
      continue;
    }
    for (const auto& [op, profile] : lr.merged) {
      const osprof::LayeredProfile* lp = lr.layered.Find(op);
      if (lp == nullptr || lp->empty()) {
        continue;
      }
      ++checked_ops;
      const osprof::Histogram& h = profile.histogram();
      const std::map<int, osprof::LayeredBucket> lbuckets = lp->buckets();
      std::uint64_t histogram_total = 0;
      for (int b = 0; b < h.num_buckets(); ++b) {
        histogram_total += h.bucket(b);
        const auto it = lbuckets.find(b);
        const std::uint64_t layered_count =
            it == lbuckets.end() ? 0 : it->second.count;
        EXPECT_EQ(layered_count, h.bucket(b))
            << layer << "/" << op << " bucket " << b;
      }
      EXPECT_EQ(lp->total_count(), histogram_total) << layer << "/" << op;
    }
  }
  EXPECT_GT(checked_ops, 0) << "no layered data collected at all";
}

// Figure 7's acceptance criterion: the four readdir peaks are not just
// visible in the latency histogram, the decomposition explains them --
// the first (fastest) peak is pure in-memory directory walking, the last
// (slowest) peak is almost entirely disk-driver time.
TEST(LayeredRunnerTest, Fig07ReaddirPeaksSplitIntoSelfAndDriver) {
  RunOptions options;
  options.trials = 1;
  const RunResult result = RunScenario(Builtin("fig07"), options);
  const auto fs = result.layers.find("fs");
  ASSERT_NE(fs, result.layers.end());
  const osprof::LayeredProfile* layered = fs->second.layered.Find("readdir");
  ASSERT_NE(layered, nullptr);

  const osprof::Histogram* histogram = nullptr;
  for (const auto& [op, profile] : fs->second.merged) {
    if (op == "readdir") {
      histogram = &profile.histogram();
    }
  }
  ASSERT_NE(histogram, nullptr);
  const std::vector<osprof::Peak> peaks = osprof::FindPeaks(*histogram);
  ASSERT_GE(peaks.size(), 2u) << "readdir should be multi-modal";

  // Share of one component over a peak's bucket range.
  const auto share = [&](const osprof::Peak& peak, osprof::LayerComponent c) {
    osprof::Cycles component = 0;
    osprof::Cycles total = 0;
    for (const auto& [bucket, data] : layered->buckets()) {
      if (peak.Contains(bucket)) {
        component += data.cycles[c];
        total += data.TotalCycles();
      }
    }
    EXPECT_GT(total, 0u);
    return static_cast<double>(component) / static_cast<double>(total);
  };

  EXPECT_GE(share(peaks.front(), osprof::kLayerSelf), 0.90)
      << "peak 1 must be pure self-CPU";
  EXPECT_GE(share(peaks.back(), osprof::kLayerDriver), 0.90)
      << "the slowest peak must be driver-dominated";
}

}  // namespace
}  // namespace osrunner
