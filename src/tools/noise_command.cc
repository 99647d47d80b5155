#include "src/tools/noise_command.h"

#include <cstdio>
#include <string>
#include <variant>

#include "src/core/preemption.h"
#include "src/profilers/noise_profiler.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "src/sim/kernel.h"

namespace ostools {
namespace {

constexpr const char* kNoiseUsage =
    "usage: osprof_tool noise [scenario]\n"
    "  Runs a noise scenario (default \"noise\") on one simulated machine\n"
    "  and prints the rtla/osnoise-style per-task interference table plus\n"
    "  the Equation 3 forced-preemption check.  Noise scenarios:\n"
    "  noise, noise_idle.\n";

}  // namespace

int RunNoiseCommand(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err) {
  std::string scenario_name = "noise";
  bool named = false;
  for (const std::string& arg : args) {
    if (arg == "--help") {
      out << kNoiseUsage;
      return 0;
    }
    if (!arg.empty() && arg[0] == '-') {
      err << "osprof_tool noise: unknown flag '" << arg << "'\n"
          << kNoiseUsage;
      return 1;
    }
    if (named) {
      err << kNoiseUsage;
      return 1;
    }
    scenario_name = arg;
    named = true;
  }
  const osrunner::Scenario* scenario =
      osrunner::BuiltinScenarios().Find(scenario_name);
  if (scenario == nullptr) {
    err << "osprof_tool noise: unknown scenario '" << scenario_name << "'\n";
    return 2;
  }
  const auto* spec = std::get_if<osrunner::NoiseSpec>(&scenario->workload);
  if (spec == nullptr) {
    err << "osprof_tool noise: scenario '" << scenario_name
        << "' is not a noise workload (noise scenarios: noise, noise_idle)\n";
    return 2;
  }

  // One machine, one trial: the tracer's table is a per-task view, and the
  // multi-trial merge lives in `run`/`gate`.
  osim::Kernel kernel(scenario->kernel);
  osprofilers::NoiseProfiler profiler(&kernel);
  for (int i = 0; i < spec->tasks; ++i) {
    kernel.Spawn("noise" + std::to_string(i),
                 profiler.NoiseTask(i, spec->samples, spec->burst));
  }
  kernel.RunUntilThreadsFinish();

  out << scenario->name << ": " << scenario->description << "\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "%d task(s) x %llu samples of %llu-cycle bursts, %d CPU(s), "
                "quantum %llu, seed %llu\n",
                spec->tasks,
                static_cast<unsigned long long>(spec->samples),
                static_cast<unsigned long long>(spec->burst),
                scenario->kernel.num_cpus,
                static_cast<unsigned long long>(scenario->kernel.quantum),
                static_cast<unsigned long long>(scenario->kernel.seed));
  out << line;
  out << profiler.RenderSummary();

  // The §3.3 Equation 3 check the gate's noise rater automates: the
  // preempted samples surface near bucket log2(Q).
  const osrunner::Equation3Check eq3 = osrunner::CheckEquation3(
      *scenario, *spec, 1, profiler.TotalPreemptions());
  std::snprintf(line, sizeof(line),
                "Eq.3: predicted %.1f forced preemptions (bucket %d), "
                "measured %.0f, rel err %.4f (tolerance %.2f)\n",
                eq3.predicted,
                osprof::PreemptionBucket(
                    static_cast<double>(scenario->kernel.quantum)),
                eq3.measured, eq3.rel_err, eq3.tolerance);
  out << line;
  return eq3.pass() ? 0 : 3;
}

}  // namespace ostools
