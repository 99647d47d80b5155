// The OS-noise profiling mode (ROADMAP item 3): runs the `noise` scenario,
// prints the rtla/osnoise-style per-task interference table, and checks
// §3.3 Equation 3 -- the measured forced-preemption count must agree with
// the model's prediction from the sample budget.  The default burst is
// bucket 16's exact mid-latency, so the prediction is free of
// bucket-rounding error and the tolerance can stay tight.

#include <cstdio>
#include <string>
#include <variant>

#include "bench/bench_util.h"
#include "src/core/preemption.h"
#include "src/profilers/noise_profiler.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "src/sim/kernel.h"

int main(int argc, char** argv) {
  osbench::Header("OS-noise profiling mode: Equation 3 validation (§3.3)");
  osbench::JsonReport report("noise");
  const osrunner::RunOptions options = osbench::ParseRunCli(argc, argv);

  const osrunner::Scenario* scenario =
      osrunner::BuiltinScenarios().Find("noise");
  const auto* spec = std::get_if<osrunner::NoiseSpec>(&scenario->workload);
  std::printf("%s\n", scenario->description.c_str());

  osbench::Section("Per-task interference table (one machine, base seed)");
  {
    osim::Kernel kernel(scenario->kernel);
    osprofilers::NoiseProfiler profiler(&kernel);
    for (int i = 0; i < spec->tasks; ++i) {
      kernel.Spawn("noise" + std::to_string(i),
                   profiler.NoiseTask(i, spec->samples, spec->burst));
    }
    kernel.RunUntilThreadsFinish();
    std::printf("%s", profiler.RenderSummary().c_str());
    const double runtime = static_cast<double>(profiler.TotalRuntime());
    const double noise = static_cast<double>(profiler.TotalNoise());
    const double available =
        runtime > 0.0 ? 100.0 * (1.0 - noise / runtime) : 100.0;
    report.Metric("percent_available", available);
    report.Check("noise_dominated_by_interference",
                 profiler.TotalPreemptions() > 0 &&
                     profiler.TotalRunQueue() > 0);
  }

  osbench::Section("Equation 3 agreement over independently-seeded trials");
  const osrunner::RunResult result = osrunner::RunScenario(*scenario, options);
  report.RecordRun(result);
  osbench::ShowRunSummary(result);
  const osrunner::Equation3Check eq3 = osrunner::CheckEquation3(
      *scenario, *spec, result.options.trials,
      result.TotalCounter("noise_preemptions"));
  std::printf("  predicted %.1f forced preemptions, measured %.0f\n"
              "  rel err %.4f (tolerance %.2f); preempted samples surface "
              "near bucket %d\n",
              eq3.predicted, eq3.measured, eq3.rel_err, eq3.tolerance,
              osprof::PreemptionBucket(
                  static_cast<double>(scenario->kernel.quantum)));
  report.Metric("eq3_predicted_preemptions", eq3.predicted);
  report.Metric("eq3_measured_preemptions", eq3.measured);
  report.Metric("eq3_rel_err", eq3.rel_err);
  report.Check("eq3_agreement_within_tolerance", eq3.pass());

  osbench::Section("Idle baseline (noise_idle: 1 task, 1 CPU)");
  const osrunner::Scenario* idle =
      osrunner::BuiltinScenarios().Find("noise_idle");
  const osrunner::RunResult idle_result =
      osrunner::RunScenario(*idle, options);
  report.RecordRun(idle_result);
  const std::uint64_t idle_preempts =
      idle_result.TotalCounter("noise_preemptions");
  const std::uint64_t idle_stolen =
      idle_result.TotalCounter("noise_stolen_cycles");
  std::printf("  preemptions %llu (want 0), timer-stolen cycles %llu "
              "(the residual noise)\n",
              static_cast<unsigned long long>(idle_preempts),
              static_cast<unsigned long long>(idle_stolen));
  report.Check("idle_baseline_has_no_preemptions", idle_preempts == 0);
  report.Check("idle_noise_is_timer_service_only",
               idle_result.TotalCounter("noise_cycles") == idle_stolen);
  return report.Finish();
}
