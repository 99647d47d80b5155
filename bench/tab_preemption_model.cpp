// §3.3, Equation 3: the forced-preemption probability model.  Reproduces
// the paper's headline number (Y=0.01, tperiod=2^10, tcpu=tperiod/2,
// Q=2^26 -> ~1e-280), sweeps the parameter space, and validates the model
// against simulated runs across quantum sizes.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/preemption.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"

namespace {

struct SimResult {
  double expected = 0.0;
  std::uint64_t measured = 0;
};

// Eq. 3 against two processes of zero-byte reads on one CPU.
SimResult ValidateAgainstSim(osprof::Cycles quantum, std::uint64_t requests) {
  osrunner::Scenario s;
  s.kernel.num_cpus = 1;
  s.kernel.quantum = quantum;
  s.kernel.timer_tick_period = 0;  // Isolate pure preemption effects.
  s.fs.cpu_noise_sigma = 0.1;
  osrunner::ZeroByteReadSpec probe;
  probe.requests = requests;
  s.workload = probe;
  const auto reads = [&s](bool preemptive) {
    s.kernel.kernel_preemption = preemptive;
    const osrunner::TrialResult trial = osrunner::RunTrial(s, 0);
    return trial.layers.at("fs").Find("read")->histogram();
  };
  // The Eq. 3 expectation needs the pure tcpu distribution: compute it
  // from a non-preemptive twin run (at the paper's scale the preempted
  // tail is negligible in the sum; at ours it is not).
  SimResult r;
  r.expected = osprof::ExpectedPreemptedRequests(reads(false),
                                                 static_cast<double>(quantum));
  r.measured = osbench::PreemptedTail(reads(true), quantum);
  return r;
}

}  // namespace

int main() {
  osbench::Header("Equation 3: forced-preemption probability model (§3.3)");
  osbench::JsonReport report("tab_preemption_model");

  osbench::Section("The paper's headline configuration");
  {
    osprof::PreemptionParams p;
    p.tperiod = std::exp2(10);
    p.tcpu = std::exp2(9);
    p.yield_probability = 0.01;
    p.quantum = std::exp2(26);
    const double pr = osprof::ForcedPreemptionProbability(p);
    std::printf("  Y=0.01, tperiod=2^10, tcpu=2^9, Q=2^26\n");
    std::printf("  Pr(fp) = %.3g  (paper: ~2.3e-280)\n", pr);
    report.Check("headline_probability_astronomically_small",
                 pr > 0.0 && pr < 1e-200);
    report.Metric("headline_pr_fp_log10", std::log10(pr));
  }

  osbench::Section("Sweep: Pr(fp) vs yield probability Y (tperiod=2^10, Q=2^26)");
  std::printf("  %-8s %-14s\n", "Y", "Pr(fp)");
  for (double y : {0.0, 1e-4, 1e-3, 0.01, 0.05, 0.1}) {
    osprof::PreemptionParams p;
    p.tperiod = std::exp2(10);
    p.tcpu = std::exp2(9);
    p.yield_probability = y;
    p.quantum = std::exp2(26);
    std::printf("  %-8.4f %-14.4g\n", y,
                osprof::ForcedPreemptionProbability(p));
  }

  osbench::Section("Sweep: Pr(fp) vs tperiod (Y=0.01, Q=2^26)");
  std::printf("  %-12s %-14s %-14s\n", "tperiod", "Q*Y/tperiod", "Pr(fp)");
  for (int log2_tp = 8; log2_tp <= 24; log2_tp += 4) {
    osprof::PreemptionParams p;
    p.tperiod = std::exp2(log2_tp);
    p.tcpu = p.tperiod / 2;
    p.yield_probability = 0.01;
    p.quantum = std::exp2(26);
    std::printf("  2^%-10d %-14.3g %-14.4g\n", log2_tp,
                p.quantum * p.yield_probability / p.tperiod,
                osprof::ForcedPreemptionProbability(p));
  }

  osbench::Section("Model vs simulation (Y=0, 2 processes, varying Q)");
  std::printf("  %-8s %-12s %-12s %-8s\n", "Q", "expected", "measured",
              "ratio");
  bool all_within_factor = true;
  for (int log2_q : {18, 19, 20, 21}) {
    const SimResult r = ValidateAgainstSim(osprof::Cycles{1} << log2_q,
                                           120'000);
    const double ratio =
        r.expected > 0 ? static_cast<double>(r.measured) / r.expected : 0.0;
    all_within_factor = all_within_factor && ratio > 0.2 && ratio < 5.0;
    report.Metric("sim_ratio_q2e" + std::to_string(log2_q), ratio);
    std::printf("  2^%-6d %-12.1f %-12llu %-8.2f\n", log2_q, r.expected,
                static_cast<unsigned long long>(r.measured), ratio);
  }
  std::printf("\n  paper shape: measured within a small factor of the Eq. 3\n"
              "  expectation, scaling ~linearly with 1/Q (they saw 278 vs\n"
              "  388 +- 33%%).\n");
  report.Check("measured_within_small_factor_of_eq3", all_within_factor);
  return report.Finish();
}
