// Figure 3: the zero-byte read profile with kernel preemption enabled vs
// disabled (paper §3.3).  Preempted requests surface in the bucket of the
// scheduling quantum; timer interrupts leave a small peak at the IRQ
// service time.  The measured count of preempted requests is compared
// against the Equation 3 expectation.
//
// Scale note: the paper issues 2e8 requests against Q = 2^26.  The
// simulation shrinks the quantum to 2^20 and the request count to 1e6;
// the expectation sum_b n_b * mid(b) / Q scales identically, so the model
// validation is unchanged (see EXPERIMENTS.md).
//
// Runs on the multi-trial runner (--trials=N --jobs=J); both the tail
// count and the Eq. 3 expectation scale linearly with the trial count,
// so the validation holds at any N.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/preemption.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"

namespace {

constexpr osprof::Cycles kQuantum = osprof::Cycles{1} << 20;

osrunner::RunResult RunZeroByteReads(const char* scenario_name,
                                     const osrunner::RunOptions& options) {
  const osrunner::Scenario* scenario =
      osrunner::BuiltinScenarios().Find(scenario_name);
  const osrunner::RunResult result = osrunner::RunScenario(*scenario, options);
  std::printf("  [%s] forced preemptions (all modes): %llu\n", scenario_name,
              static_cast<unsigned long long>(
                  result.TotalCounter("forced_preemptions")));
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  osbench::Header(
      "Figure 3: zero-byte read, preemptive vs non-preemptive kernel");
  osbench::JsonReport report("fig03_preemption");
  const osrunner::RunOptions options = osbench::ParseRunCli(argc, argv);
  std::printf("quantum Q = 2^20 cycles, 2 processes x 500000 requests, 1 CPU\n");

  const osrunner::RunResult preemptive_run =
      RunZeroByteReads("fig03", options);
  const osrunner::RunResult nonpreemptive_run =
      RunZeroByteReads("fig03_nonpreempt", options);
  const osprof::Histogram& preemptive =
      preemptive_run.layers.at("fs").merged.Find("read")->histogram();
  const osprof::Histogram& nonpreemptive =
      nonpreemptive_run.layers.at("fs").merged.Find("read")->histogram();

  osbench::Section("READ (preemptive kernel)");
  osbench::ShowProfile(osprof::Profile("READ-preemptive", preemptive));
  osbench::Section("READ (non-preemptive kernel)");
  osbench::ShowProfile(osprof::Profile("READ-nonpreemptive", nonpreemptive));
  osbench::ShowRunSummary(preemptive_run);
  osbench::ShowDispersion(preemptive_run, "fs");
  report.RecordRun(preemptive_run);
  report.RecordRun(nonpreemptive_run);
  report.WriteProfileSet(preemptive_run.layers.at("fs").merged, "fs");

  osbench::Section("Equation 3 validation");
  const int q_bucket = osprof::PreemptionBucket(static_cast<double>(kQuantum));
  const std::uint64_t measured = osbench::PreemptedTail(preemptive, kQuantum);
  const std::uint64_t measured_np =
      osbench::PreemptedTail(nonpreemptive, kQuantum);
  // The Eq. 3 expectation needs the pure tcpu distribution, which is what
  // the non-preemptive profile records.
  const double expected = osprof::ExpectedPreemptedRequests(
      nonpreemptive, static_cast<double>(kQuantum));
  std::printf("  quantum bucket: %d\n", q_bucket);
  std::printf("  expected preempted requests (Eq. 3 sum): %.1f\n", expected);
  std::printf("  measured in quantum-bucket tail (preemptive):     %llu\n",
              static_cast<unsigned long long>(measured));
  std::printf("  measured in quantum-bucket tail (non-preemptive): %llu\n",
              static_cast<unsigned long long>(measured_np));
  std::printf("  paper shape: tail present only with preemption "
              "(observed 278 vs expected 388 +- 33%% at their scale)\n");
  const bool shape_holds =
      measured > 0 && measured_np == 0 && measured < 4 * (expected + 1) &&
      4 * measured > static_cast<std::uint64_t>(expected / 4);
  std::printf("  shape holds: %s\n", shape_holds ? "YES" : "NO");
  report.Check("preemption_tail_shape", shape_holds);
  report.Check("no_tail_without_preemption", measured_np == 0);
  report.Metric("expected_preempted", expected);
  report.Metric("measured_preempted", static_cast<double>(measured));
  return report.Finish();
}
