// Runner-level acceptance tests for the cluster scenarios (ROADMAP item
// 4): byte-identical serialization across jobs values and reruns, zero
// SimRace reports, the DLM ping-pong visible in the counters, and the
// headline attribution criterion -- the slowest write peak decomposes
// almost entirely into lock_wait + net.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/core/layered.h"
#include "src/core/peaks.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "tests/runner/runner_test_util.h"

namespace osrunner {
namespace {

TEST(ClusterScenario, ParallelRunsAreByteIdenticalToSerial) {
  RunOptions serial;
  serial.trials = 3;
  serial.jobs = 1;
  RunOptions parallel = serial;
  parallel.jobs = 8;
  for (const std::string name :
       {"cluster_write_shared", "cluster_read_mostly"}) {
    const std::string a = GoldenText(RunScenario(Builtin(name), serial));
    const std::string b = GoldenText(RunScenario(Builtin(name), parallel));
    EXPECT_FALSE(a.empty()) << name;
    EXPECT_EQ(a, b) << name;
  }
}

TEST(ClusterScenario, RerunsAreByteIdentical) {
  RunOptions options;
  options.trials = 2;
  const std::string a =
      GoldenText(RunScenario(Builtin("cluster_write_shared"), options));
  const std::string b =
      GoldenText(RunScenario(Builtin("cluster_write_shared"), options));
  EXPECT_EQ(a, b);
}

TEST(ClusterScenario, RaceFreeUnderSimRace) {
  RunOptions options;
  options.trials = 1;
  for (const std::string name :
       {"cluster_write_shared", "cluster_read_mostly"}) {
    const RunResult result = RunScenario(Builtin(name), options);
    EXPECT_TRUE(result.RaceReports().empty())
        << name << ": " << result.RaceReports().size() << " race report(s)";
  }
}

TEST(ClusterScenario, WriteSharedPingPongsTheLock) {
  RunOptions options;
  options.trials = 1;
  const RunResult result =
      RunScenario(Builtin("cluster_write_shared"), options);
  // Both nodes write the one shared file: every handoff is a revoke.
  EXPECT_GT(result.TotalCounter("dlm_basts"), 0u);
  EXPECT_GT(result.TotalCounter("dlm_downgrades"), 0u);
  EXPECT_GT(result.TotalCounter("dlm_queued_waits"), 0u);
  EXPECT_GT(result.TotalCounter("net_messages"), 0u);
  EXPECT_GT(result.TotalCounter("pages_flushed"), 0u);
  EXPECT_GT(result.TotalCounter("cache_invalidations"), 0u);
  EXPECT_EQ(result.TotalCounter("writes"), 600u);  // 2 nodes x 300 iters.
}

TEST(ClusterScenario, ReadMostlyKeepsGrantsCached) {
  RunOptions options;
  options.trials = 1;
  const RunResult result =
      RunScenario(Builtin("cluster_read_mostly"), options);
  const std::uint64_t acquires = result.TotalCounter("dlm_acquires");
  const std::uint64_t hits = result.TotalCounter("dlm_cache_hits");
  ASSERT_GT(acquires, 0u);
  // Reads dominate, so most acquires are PR cache hits between the
  // occasional revoking writes.
  EXPECT_GT(hits * 2, acquires);
  EXPECT_LT(result.TotalCounter("dlm_downgrades"),
            result.TotalCounter("dlm_acquires"));
}

// The acceptance criterion the cluster_write_shared golden pins: the
// slowest write peak is >= 80% lock_wait + net -- the stall is the DLM
// ping-pong (wire round trip + waiting out the peer's flush), not the
// write's own work.
TEST(ClusterScenario, SlowestWritePeakIsLockWaitPlusNet) {
  RunOptions options;
  options.trials = 1;
  const RunResult result =
      RunScenario(Builtin("cluster_write_shared"), options);
  const auto cluster = result.layers.find("cluster");
  ASSERT_NE(cluster, result.layers.end());

  const osprof::Histogram* histogram = nullptr;
  for (const auto& [op, profile] : cluster->second.merged) {
    if (op == "write") {
      histogram = &profile.histogram();
    }
  }
  ASSERT_NE(histogram, nullptr);
  const auto peaks = osprof::FindPeaks(*histogram);
  ASSERT_GE(peaks.size(), 2u) << "expected a fast peak and the ping-pong "
                                 "peak";
  const osprof::Peak& slowest = peaks.back();

  const osprof::LayeredProfile* layered =
      cluster->second.layered.Find("write");
  ASSERT_NE(layered, nullptr);
  const std::map<int, osprof::LayeredBucket> buckets = layered->buckets();
  osprof::Cycles lock_net = 0;
  osprof::Cycles total = 0;
  for (const auto& [bucket, lb] : buckets) {
    if (bucket < slowest.first_bucket || bucket > slowest.last_bucket) {
      continue;
    }
    lock_net += lb.cycles[osprof::kLayerLockWait];
    lock_net += lb.cycles[osprof::kLayerNet];
    total += lb.TotalCycles();
  }
  ASSERT_GT(total, 0u);
  EXPECT_GE(static_cast<double>(lock_net), 0.8 * static_cast<double>(total))
      << "slowest write peak is only "
      << 100.0 * static_cast<double>(lock_net) / static_cast<double>(total)
      << "% lock_wait+net";
}

}  // namespace
}  // namespace osrunner
