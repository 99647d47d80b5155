// §5.1: memory and cache footprint of the profiler.
//
// The paper reports: hot instrumentation/sorting functions of 231 bytes
// (below 1% of any modern CPU cache), under 9KB of added code per
// instrumented file system, and a fixed profile memory area of usually
// less than 1KB per operation profile.  This bench reports the
// corresponding numbers for this implementation's data structures and a
// live profile set captured from a grep run.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/histogram.h"
#include "src/core/probe.h"
#include "src/core/profile.h"
#include "src/core/sampling.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"

int main() {
  osbench::Header("§5.1: memory usage of the aggregate-stats structures");
  osbench::JsonReport report("tab_memory_usage");

  osbench::Section("Static structure sizes");
  const std::size_t bucket_bytes = osprof::kMaxLog2Buckets * sizeof(std::uint64_t);
  std::printf("  Histogram object:        %4zu B + %zu B bucket array (r=1)\n",
              sizeof(osprof::Histogram), bucket_bytes);
  std::printf("  Histogram (r=2):         %4zu B + %zu B bucket array\n",
              sizeof(osprof::Histogram), 2 * bucket_bytes);
  std::printf("  AtomicHistogram:         %4zu B + %zu B bucket array\n",
              sizeof(osprof::AtomicHistogram), bucket_bytes);
  std::printf("  Profile:                 %4zu B + buckets\n",
              sizeof(osprof::Profile));
  std::printf("  LatencyProbe (on-stack): %4zu B\n",
              sizeof(osprof::LatencyProbe));
  const std::size_t per_profile = sizeof(osprof::Profile) + bucket_bytes;
  std::printf("  => one operation profile occupies ~%zu B "
              "(paper: usually < 1KB)  %s\n",
              per_profile,
              report.Check("profile_under_1kb", per_profile < 1024)
                  ? "HOLDS"
                  : "differs");
  report.Metric("bytes_per_profile", static_cast<double>(per_profile));

  osbench::Section("Live profile set from a grep run");
  osrunner::Scenario grep_run;
  grep_run.kernel.seed = 3;
  osrunner::GrepSpec grep;
  grep.root = "/src";
  grep.tree.top_dirs = 6;
  grep_run.workload = grep;
  const osrunner::TrialResult trial = osrunner::RunTrial(grep_run, 0);

  const osprof::ProfileSet& set = trial.layers.at("fs");
  std::size_t resident = 0;
  for (const auto& [name, profile] : set) {
    resident += sizeof(profile) + bucket_bytes + name.size();
  }
  std::printf("  operations profiled: %zu\n", set.size());
  std::printf("  resident profile memory: ~%zu B total (~%zu B/op)\n",
              resident, resident / set.size());
  const std::string serialized = set.ToString();
  std::printf("  serialized (text /proc format): %zu B\n", serialized.size());
  std::printf("  operations recorded: %llu; checksum consistency: %s\n",
              static_cast<unsigned long long>(set.TotalOperations()),
              report.Check("live_set_checksum_consistent",
                           set.CheckConsistency())
                  ? "OK"
                  : "BROKEN");
  report.AddSimCycles(trial.sim_cycles);
  report.AddOps(set.TotalOperations());
  report.Metric("resident_profile_bytes", static_cast<double>(resident));

  osbench::Section("Sampled (3-D) profiles stay small too (Figure 9 mode)");
  osprof::SampledProfileSet sampled(1'000'000, 1);
  for (osprof::Cycles t = 0; t < 100'000'000; t += 100'000) {
    sampled.Add("read", t, 100 + t % 1'000);
  }
  const osprof::SampledProfile* sp = sampled.Find("read");
  std::printf("  100 epochs of one op: ~%zu B (%d epochs x %zu B)\n",
              static_cast<std::size_t>(sp->num_epochs()) *
                  (sizeof(osprof::Histogram) + bucket_bytes),
              sp->num_epochs(), sizeof(osprof::Histogram) + bucket_bytes);
  std::printf("\n  (The paper's 231-byte hot-function / <9KB code-size\n"
              "  figures are properties of their C instrumentation; the\n"
              "  analogous hot path here is Histogram::Add -- a handful of\n"
              "  instructions -- measured by micro_core_bench.)\n");
  return report.Finish();
}
