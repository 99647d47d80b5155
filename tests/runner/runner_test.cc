// The multi-trial scenario runner: registry behaviour, cross-job
// determinism, dispersion statistics, the unified ProfilerSink interface
// and the `osprof_tool run` subcommand.

#include <initializer_list>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "gtest/gtest.h"
#include "src/profilers/noise_profiler.h"
#include "src/profilers/posix_profiler.h"
#include "src/profilers/profiler_sink.h"
#include "src/profilers/sim_profiler.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "src/sim/disk.h"
#include "src/sim/kernel.h"
#include "src/tools/profile_tool.h"
#include "tests/runner/runner_test_util.h"

namespace osrunner {
namespace {

// A scenario small enough to run many trials inside a unit test.
Scenario TinyGrep() {
  Scenario s;
  s.name = "tiny_grep";
  s.kernel.num_cpus = 1;
  s.kernel.seed = 99;
  GrepSpec grep;
  grep.tree.top_dirs = 2;
  grep.tree.subdirs_per_dir = 1;
  grep.tree.depth = 1;
  grep.tree.files_per_dir = 4;
  s.workload = grep;
  return s;
}

Scenario TinyClone() {
  Scenario s;
  s.name = "tiny_clone";
  s.kernel.num_cpus = 2;
  s.kernel.seed = 17;
  CloneSpec clone;
  clone.processes = 2;
  clone.iterations = 50;
  s.workload = clone;
  return s;
}

TEST(ScenarioRegistryTest, RegisterFindAndReject) {
  ScenarioRegistry registry;
  Scenario s = TinyGrep();
  registry.Register(s);
  ASSERT_NE(registry.Find("tiny_grep"), nullptr);
  EXPECT_EQ(registry.Find("missing"), nullptr);
  EXPECT_THROW(registry.Register(s), std::invalid_argument);  // Duplicate.
  Scenario unnamed;
  unnamed.name = "";
  EXPECT_THROW(registry.Register(unnamed), std::invalid_argument);
}

TEST(ScenarioRegistryTest, BuiltinsContainThePortedFigures) {
  const ScenarioRegistry& registry = BuiltinScenarios();
  for (const char* name : {"fig01", "fig03", "fig07"}) {
    EXPECT_NE(registry.Find(name), nullptr) << name;
  }
}

TEST(RunnerTest, RejectsNonPositiveTrials) {
  RunOptions options;
  options.trials = 0;
  EXPECT_THROW(RunScenario(TinyGrep(), options), std::invalid_argument);
}

TEST(RunnerTest, TrialSeedsAreDistinctAndDerived) {
  RunOptions options;
  options.trials = 4;
  const RunResult result = RunScenario(TinyGrep(), options);
  std::set<std::uint64_t> seeds;
  for (const TrialResult& t : result.trials) {
    EXPECT_EQ(t.seed, 99u + static_cast<std::uint64_t>(t.trial));
    seeds.insert(t.seed);
  }
  EXPECT_EQ(seeds.size(), 4u);
}

// Satellite 4: the same scenario + seed run twice serializes identically.
TEST(RunnerTest, SameSeedRunsAreByteIdentical) {
  RunOptions options;
  options.trials = 3;
  const RunResult a = RunScenario(TinyGrep(), options);
  const RunResult b = RunScenario(TinyGrep(), options);
  const std::string sa = GoldenText(a);
  EXPECT_FALSE(sa.empty());
  EXPECT_EQ(sa, GoldenText(b));
}

// Acceptance criterion: the worker count must not affect the merge.
TEST(RunnerTest, JobCountDoesNotChangeMergedProfiles) {
  RunOptions serial;
  serial.trials = 4;
  serial.jobs = 1;
  RunOptions parallel = serial;
  parallel.jobs = 4;
  const RunResult a = RunScenario(TinyGrep(), serial);
  const RunResult b = RunScenario(TinyGrep(), parallel);
  EXPECT_EQ(GoldenText(a), GoldenText(b));
  EXPECT_EQ(a.TotalCounter("files_read"), b.TotalCounter("files_read"));
}

TEST(RunnerTest, MergedProfileIsTheSumOfTrialProfiles) {
  RunOptions options;
  options.trials = 3;
  const RunResult result = RunScenario(TinyGrep(), options);
  const auto& fs_layer = result.layers.at("fs");
  for (const std::string& op : fs_layer.merged.OperationNames()) {
    std::uint64_t sum = 0;
    for (const TrialResult& t : result.trials) {
      const osprof::Profile* p = t.layers.at("fs").Find(op);
      sum += p == nullptr ? 0 : p->total_operations();
    }
    EXPECT_EQ(fs_layer.merged.Find(op)->total_operations(), sum) << op;
  }
}

TEST(RunnerTest, DispersionIsOrderedAndCoversTheMergedRange) {
  RunOptions options;
  options.trials = 5;
  const RunResult result = RunScenario(TinyGrep(), options);
  const LayerResult& fs_layer = result.layers.at("fs");
  ASSERT_FALSE(fs_layer.dispersion.empty());
  for (const OpDispersion& d : fs_layer.dispersion) {
    ASSERT_GE(d.first_bucket, 0) << d.op;
    const std::size_t width =
        static_cast<std::size_t>(d.last_bucket - d.first_bucket + 1);
    ASSERT_EQ(d.min_count.size(), width);
    ASSERT_EQ(d.median_count.size(), width);
    ASSERT_EQ(d.max_count.size(), width);
    for (std::size_t i = 0; i < width; ++i) {
      EXPECT_LE(d.min_count[i], d.median_count[i]) << d.op << " @" << i;
      EXPECT_LE(d.median_count[i], d.max_count[i]) << d.op << " @" << i;
    }
    EXPECT_GE(d.modal_peak_count, 0);
    EXPECT_GE(d.stable_peak_trials, 1);
    EXPECT_LE(d.stable_peak_trials, 5);
  }
  const std::string report = RenderDispersion(fs_layer, options.trials);
  EXPECT_NE(report.find("readdir"), std::string::npos);
}

TEST(RunnerTest, CloneScenarioRecordsUserLayerAndCounters) {
  RunOptions options;
  options.trials = 2;
  const RunResult result = RunScenario(TinyClone(), options);
  ASSERT_EQ(result.layers.count("user"), 1u);
  EXPECT_NE(result.layers.at("user").merged.Find("clone"), nullptr);
  // 2 trials x 2 processes x 50 iterations.
  EXPECT_EQ(result.TotalCounter("acquisitions"), 200u);
  EXPECT_EQ(result.TotalCounter("missing_counter"), 0u);
}

TEST(RunnerTest, DriverLayerAppearsWhenRequested) {
  Scenario s = TinyGrep();
  s.profilers.driver = true;
  RunOptions options;
  options.trials = 1;
  const RunResult result = RunScenario(s, options);
  EXPECT_EQ(result.layers.count("fs"), 1u);
  EXPECT_EQ(result.layers.count("driver"), 1u);
}

// The exact counter names each registered scenario reports in trial 0.
// Names are what `run`, the benches and the benchmark digest key on, so a
// counter renamed, dropped or moved to another workload fails here.
// scale_1m is left out for its run time; scale_smoke has its workload.
TEST(RunnerTest, CounterNamesPerRegisteredScenario) {
  using Names = std::set<std::string>;
  const auto all = [](std::initializer_list<Names> parts) {
    Names out;
    for (const Names& part : parts) {
      out.insert(part.begin(), part.end());
    }
    return out;
  };
  const Names kernel = {"context_switches", "forced_preemptions",
                        "timer_interrupts"};
  const Names races = {"race_accesses_checked", "race_cells_tracked",
                       "race_racy_accesses", "race_reports"};
  const Names lock = {"acquisitions", "contended_acquisitions"};
  const Names grep = {"bytes_read", "directories_visited", "files_read"};
  const Names cifs = {"delayed_acks", "server_requests"};
  const Names postmark = {"appends", "creates", "deletes", "reads"};
  const Names noise = {"noise_cycles",        "noise_lock_handoffs",
                       "noise_max_single",    "noise_migrations",
                       "noise_preemptions",   "noise_runq_cycles",
                       "noise_runtime_cycles", "noise_samples",
                       "noise_stolen_cycles", "noise_timer_ticks"};
  const Names traffic = {"bytes_read",     "bytes_written",
                         "peak_live_sessions", "reaped_threads",
                         "reads",          "requests",
                         "run_queue_peak", "sessions",
                         "shard_flushes",  "sim_heap_bytes",
                         "spawned_threads", "writes"};
  const Names cluster = {"bytes_read",          "bytes_written",
                         "cache_invalidations", "dlm_acquires",
                         "dlm_basts",           "dlm_cache_hits",
                         "dlm_downgrades",      "dlm_queued_waits",
                         "dlm_remote_requests", "net_bytes",
                         "net_messages",        "pages_flushed",
                         "reads",               "writes"};
  const std::map<std::string, Names> expected = {
      {"cluster_read_mostly", all({kernel, races, cluster})},
      {"cluster_write_shared", all({kernel, races, cluster})},
      {"fig01", all({kernel, races, lock})},
      {"fig01_single", all({kernel, races, lock})},
      {"fig03", all({kernel, races})},
      {"fig03_nonpreempt", all({kernel, races})},
      {"fig06", all({kernel, races})},
      {"fig07", all({kernel, races, grep})},
      {"fig07_cifs", all({kernel, races, grep, cifs})},
      {"fig07_driver", all({kernel, races, grep})},
      {"fig10", all({kernel, races, grep, cifs})},
      {"fig10_linux", all({kernel, races, grep, cifs})},
      {"nfs_grep", all({kernel, races, grep, {"server_requests"}})},
      {"noise", all({kernel, races, noise})},
      {"noise_idle", all({kernel, races, noise})},
      {"postmark", all({kernel, races, postmark})},
      {"race_control_locked", all({kernel, races, lock})},
      {"race_fixture_counter", all({kernel, races})},
      {"race_fixture_readers", all({kernel, races})},
      {"scale_smoke", all({kernel, traffic})},
  };
  for (const std::string& name : BuiltinScenarios().Names()) {
    if (name == "scale_1m") {
      continue;
    }
    const auto want = expected.find(name);
    ASSERT_NE(want, expected.end()) << "no pinned counters for " << name;
    const TrialResult trial = RunTrial(*BuiltinScenarios().Find(name), 0);
    Names got;
    for (const auto& [counter, value] : trial.counters) {
      got.insert(counter);
    }
    EXPECT_EQ(got, want->second) << name;
  }
}

// Satellite 2: every profiler presents the same sink surface.
TEST(ProfilerSinkTest, AllFourProfilersImplementTheInterface) {
  osim::KernelConfig kcfg;
  osim::Kernel kernel(kcfg);
  osim::SimDisk disk(&kernel);

  osprofilers::SimProfiler sim(&kernel, 2);
  osprofilers::DriverProfiler driver(&kernel, &disk, 2);
  osprofilers::PosixProfiler posix(2);
  osprofilers::NoiseProfiler noise(&kernel, 2);

  const std::vector<osprofilers::ProfilerSink*> sinks = {&sim, &driver, &posix,
                                                         &noise};
  const std::vector<std::string> layers = {"fs", "driver", "posix", "noise"};
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    EXPECT_EQ(sinks[i]->layer(), layers[i]);
    EXPECT_EQ(sinks[i]->resolution(), 2);
    EXPECT_TRUE(sinks[i]->Collect().empty());
    sinks[i]->Reset();  // Reset on an idle profiler is a no-op.
    EXPECT_TRUE(sinks[i]->Collect().empty());
  }

  // Only SimProfiler opens request spans, so only it decomposes.
  ASSERT_NE(sim.layered(), nullptr);
  EXPECT_TRUE(sim.layered()->empty());
  EXPECT_EQ(driver.layered(), nullptr);
  EXPECT_EQ(posix.layered(), nullptr);
  EXPECT_EQ(noise.layered(), nullptr);

  // Collect() snapshots; Reset() clears.
  posix.Measure("noop", [] { return 0; });
  EXPECT_EQ(posix.Collect().TotalOperations(), 1u);
  posix.Reset();
  EXPECT_TRUE(posix.Collect().empty());

  sim.set_layer("user");
  EXPECT_EQ(sim.layer(), "user");
}

TEST(RunCommandTest, ListAndErrorsAndSmoke) {
  {
    std::ostringstream out, err;
    EXPECT_EQ(ostools::RunProfileTool({"run", "--list"}, out, err), 0);
    EXPECT_NE(out.str().find("fig07"), std::string::npos);
  }
  {
    std::ostringstream out, err;
    EXPECT_EQ(ostools::RunProfileTool({"run", "no_such_scenario"}, out, err),
              1);
    EXPECT_NE(err.str().find("unknown scenario"), std::string::npos);
  }
  {
    std::ostringstream out, err;
    EXPECT_EQ(
        ostools::RunProfileTool({"run", "fig07", "--trials=abc"}, out, err),
        1);
  }
  {
    // The whole token must be an integer: "2x" is not 2.
    std::ostringstream out, err;
    EXPECT_EQ(
        ostools::RunProfileTool({"run", "fig07", "--trials=2x"}, out, err), 1);
    EXPECT_NE(err.str().find("bad --trials value '2x'"), std::string::npos);
  }
  {
    // A real (small) run through the CLI path: fig01_single at 2 trials.
    std::ostringstream out, err;
    EXPECT_EQ(ostools::RunProfileTool(
                  {"run", "fig01_single", "--trials=2", "--jobs=2"}, out, err),
              0)
        << err.str();
    EXPECT_NE(out.str().find("2 trial(s) on 2 job(s)"), std::string::npos);
    EXPECT_NE(out.str().find("clone"), std::string::npos);
  }
}

}  // namespace
}  // namespace osrunner
