// The scale scenarios (open-loop traffic + per-CPU shards) through the
// multi-trial runner: the sharded profiler's serialized output must be
// byte-identical to unsharded recording for any CPU count, any epoch
// length and any --jobs value, and the traffic generator must deliver
// exactly its planned request count.

#include <string>

#include "gtest/gtest.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "src/workloads/traffic.h"
#include "tests/runner/runner_test_util.h"

namespace osrunner {
namespace {

// scale_smoke's shape shrunk further: a few hundred requests, so a dozen
// full runs stay inside a unit test's budget.
Scenario TinyTraffic(int num_cpus) {
  Scenario s;
  s.name = "tiny_traffic";
  s.kernel.num_cpus = num_cpus;
  s.kernel.seed = 71;
  s.kernel.reap_finished = true;
  TrafficSpec t;
  t.config.phases = {{12, osim::Cycles{1'500'000}},
                     {24, osim::Cycles{3'000'000}}};
  t.config.requests_per_session = 10;
  t.config.file_pool = 16;
  s.workload = t;
  return s;
}

TEST(ScaleScenario, ShardingIsByteInvisibleForAnyCpuCountAndEpoch) {
  RunOptions options;
  options.trials = 2;
  for (const int cpus : {1, 4, 64}) {
    Scenario unsharded = TinyTraffic(cpus);
    const std::string reference = GoldenText(RunScenario(unsharded, options));
    EXPECT_FALSE(reference.empty());
    for (const osim::Cycles epoch :
         {osim::Cycles{0}, osim::Cycles{1} << 18, osim::Cycles{1} << 22}) {
      Scenario sharded = TinyTraffic(cpus);
      sharded.profilers.per_cpu_shards = true;
      sharded.profilers.shard_epoch = epoch;
      EXPECT_EQ(GoldenText(RunScenario(sharded, options)), reference)
          << cpus << " CPUs, epoch " << epoch;
    }
  }
}

TEST(ScaleScenario, ShardedOutputIsJobsInvariant) {
  Scenario scenario = TinyTraffic(4);
  scenario.profilers.per_cpu_shards = true;
  scenario.profilers.shard_epoch = osim::Cycles{1} << 20;
  RunOptions serial;
  serial.trials = 4;
  serial.jobs = 1;
  RunOptions parallel;
  parallel.trials = 4;
  parallel.jobs = 4;
  EXPECT_EQ(GoldenText(RunScenario(scenario, serial)),
            GoldenText(RunScenario(scenario, parallel)));
}

TEST(ScaleScenario, TrafficDeliversExactlyThePlannedRequests) {
  const Scenario scenario = TinyTraffic(4);
  const auto* traffic = std::get_if<TrafficSpec>(&scenario.workload);
  RunOptions options;
  options.trials = 2;
  const RunResult result = RunScenario(scenario, options);
  const std::uint64_t planned =
      osworkloads::PlannedRequests(traffic->config) * 2u;
  EXPECT_EQ(result.TotalCounter("requests"), planned);
  EXPECT_EQ(result.TotalCounter("sessions"), 36u * 2u);
  EXPECT_EQ(result.TotalCounter("reads") + result.TotalCounter("writes"),
            planned);
  // Churn engaged the reaper: every session (plus each trial's driver
  // thread) was reaped.
  EXPECT_EQ(result.TotalCounter("reaped_threads"), (36u + 1u) * 2u);
  EXPECT_GT(result.TotalCounter("peak_live_sessions"), 0u);
}

TEST(ScaleScenario, BuiltinScaleScenariosAreRegistered) {
  const Scenario* big = BuiltinScenarios().Find("scale_1m");
  ASSERT_NE(big, nullptr);
  const auto* traffic = std::get_if<TrafficSpec>(&big->workload);
  ASSERT_NE(traffic, nullptr);
  // The acceptance floor: the curve plans at least a million requests on
  // at least 64 CPUs, with reaping and sharding on.
  EXPECT_GE(osworkloads::PlannedRequests(traffic->config), 1'000'000u);
  EXPECT_GE(big->kernel.num_cpus, 64);
  EXPECT_TRUE(big->kernel.reap_finished);
  EXPECT_TRUE(big->profilers.per_cpu_shards);
  ASSERT_NE(BuiltinScenarios().Find("scale_smoke"), nullptr);
}

}  // namespace
}  // namespace osrunner
