// Million-task scale bench: the scale_1m scenario under a hard wall-clock
// budget and peak-RSS ceiling.
//
// scale_1m drives >= 1,000,000 open-loop requests across 64 simulated
// CPUs (src/workloads/traffic.h): sessions arrive on a ramp / plateau /
// ramp-down curve, issue a short heavy-tailed request loop against Ext2,
// and die; the kernel reaps their frames, and per-CPU profile shards
// absorb the record traffic.
//
// Unlike the figure benches -- reproductions whose checks are advisory --
// this bench is a CI gate: it exits nonzero when any check fails, so the
// `scale` job fails on a scale regression.  The budget and ceiling are
// overridable for slower machines:
//
//   OSPROF_SCALE_WALL_BUDGET_S   wall-clock budget in seconds (default 120)
//   OSPROF_SCALE_RSS_CEILING_MB  peak-RSS ceiling in MiB     (default 2048)

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

#include "bench/bench_util.h"
#include "src/core/layered.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"

namespace {

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value == nullptr || value[0] == '\0' ? fallback : std::atof(value);
}

}  // namespace

int main(int argc, char** argv) {
  osbench::Header("scale_1m: million-request open-loop traffic on 64 CPUs");
  osbench::JsonReport report("scale_1m");
  const osrunner::RunOptions options = osbench::ParseRunCli(argc, argv);
  const double wall_budget_s = EnvDouble("OSPROF_SCALE_WALL_BUDGET_S", 120.0);
  const double rss_ceiling_mb =
      EnvDouble("OSPROF_SCALE_RSS_CEILING_MB", 2048.0);

  const osrunner::Scenario* scenario =
      osrunner::BuiltinScenarios().Find("scale_1m");
  const auto* traffic =
      std::get_if<osrunner::TrafficSpec>(&scenario->workload);
  const osrunner::RunResult result = osrunner::RunScenario(*scenario, options);
  report.RecordRun(result);

  const std::uint64_t requests = result.TotalCounter("requests");
  const std::uint64_t sessions = result.TotalCounter("sessions");
  const std::uint64_t planned =
      osworkloads::PlannedRequests(traffic->config) *
      static_cast<std::uint64_t>(result.options.trials);
  const double peak_rss_mb =
      static_cast<double>(osbench::PeakRssBytes()) / (1024.0 * 1024.0);
  const double requests_per_sec =
      result.wall_seconds > 0.0
          ? static_cast<double>(requests) / result.wall_seconds
          : 0.0;

  std::printf(
      "%llu requests over %llu sessions in %.2f s wall (%.0f req/s), "
      "peak RSS %.0f MiB\n",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(sessions), result.wall_seconds,
      requests_per_sec, peak_rss_mb);
  std::printf(
      "kernel: %llu threads spawned, %llu reaped, run-queue peak %llu, "
      "sim heap %.1f MiB; %llu shard flushes, peak %llu live sessions\n",
      static_cast<unsigned long long>(result.TotalCounter("spawned_threads")),
      static_cast<unsigned long long>(result.TotalCounter("reaped_threads")),
      static_cast<unsigned long long>(result.TotalCounter("run_queue_peak")),
      static_cast<double>(result.TotalCounter("sim_heap_bytes")) /
          (1024.0 * 1024.0),
      static_cast<unsigned long long>(result.TotalCounter("shard_flushes")),
      static_cast<unsigned long long>(
          result.TotalCounter("peak_live_sessions")));
  osbench::ShowRunSummary(result);

  // The merged profile and its layered decomposition must come out of the
  // sharded profiler intact: serialized like any gate scenario's.
  const osrunner::LayerResult& fs = result.layers.at("fs");
  const std::string prof_path = report.WriteProfileSet(fs.merged, "fs");
  bool layers_ok = false;
  {
    const std::string layers_path =
        osbench::BenchOutputPath("BENCH_scale_1m.layers");
    std::map<std::string, osprof::LayeredProfileSet> layered;
    if (!fs.layered.empty()) {
      layered.emplace("fs", fs.layered);
    }
    std::ofstream out(layers_path);
    if (out && !layered.empty()) {
      osprof::SerializeLayers(layered, out);
      layers_ok = out.good();
      std::printf("[layered decomposition: %s]\n", layers_path.c_str());
    }
  }

  osbench::Section("Dispersion (merged fs layer)");
  std::printf("%s",
              osrunner::RenderDispersion(fs, result.options.trials).c_str());

  osbench::Section("Checks");
  bool all_ok = true;
  const auto check = [&](const char* name, bool pass) {
    all_ok &= report.Check(name, pass);
    std::printf("  %-34s %s\n", name, pass ? "PASS" : "FAIL");
  };
  check("requests_at_least_1m", requests >= 1'000'000u);
  check("requests_match_plan", requests == planned);
  check("all_sessions_finished",
        sessions == result.TotalCounter("spawned_threads") -
                        static_cast<std::uint64_t>(result.options.trials));
  check("cpus_at_least_64", scenario->kernel.num_cpus >= 64);
  check("wall_within_budget", result.wall_seconds <= wall_budget_s);
  check("peak_rss_within_ceiling", peak_rss_mb <= rss_ceiling_mb);
  check("profile_set_written", !prof_path.empty());
  check("layered_decomposition_written", layers_ok);
  check("reaping_engaged", result.TotalCounter("reaped_threads") >= sessions);

  report.Metric("requests", static_cast<double>(requests));
  report.Metric("requests_per_sec", requests_per_sec);
  report.Metric("wall_budget_s", wall_budget_s);
  report.Metric("peak_rss_mb", peak_rss_mb);
  report.Metric("rss_ceiling_mb", rss_ceiling_mb);
  report.Metric("peak_live_sessions",
                static_cast<double>(result.TotalCounter("peak_live_sessions")));
  report.Metric("run_queue_peak",
                static_cast<double>(result.TotalCounter("run_queue_peak")));
  report.Metric("sim_heap_mb",
                static_cast<double>(result.TotalCounter("sim_heap_bytes")) /
                    (1024.0 * 1024.0));
  report.Metric("shard_flushes",
                static_cast<double>(result.TotalCounter("shard_flushes")));
  report.Metric("dispersion_ops", static_cast<double>(fs.dispersion.size()));

  const int finish = report.Finish();
  if (finish != 0) {
    return finish;
  }
  return all_ok ? 0 : 1;
}
