// The parallel multi-trial scenario runner.
//
// OSprof profiles are cheap to collect but noisy to interpret from a
// single run: scheduling, seek ordering and cache state move mass between
// adjacent buckets (the paper separates signal from this noise by
// repetition, and §3.4 recommends sharded collection precisely so
// concurrent captures can be merged afterwards).  The runner executes N
// independently-seeded trials of one Scenario -- each trial a fully
// private simulated machine (Kernel + disk + fs + workload threads) -- on
// a pool of J worker threads, then:
//
//  * merges the per-trial ProfileSets layer by layer with
//    ProfileSet::Merge (associative + commutative, and applied in trial
//    order, so the merged totals are bit-identical for any J);
//  * reports cross-trial dispersion: per-bucket min/median/max counts and
//    a peak-stability score (in how many trials does the operation show
//    the same number of peaks as it does most often?).
//
// Profiles are collected through the ProfilerSink interface, so the
// runner is indifferent to which layer (user / fs / cifs / cluster /
// driver / noise) produced them.

#ifndef OSPROF_SRC_RUNNER_RUNNER_H_
#define OSPROF_SRC_RUNNER_RUNNER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/layered.h"
#include "src/core/profile.h"
#include "src/runner/scenario.h"

namespace osrunner {

struct RunOptions {
  int trials = 1;
  // Worker threads; <= 0 selects std::thread::hardware_concurrency().
  int jobs = 1;
};

// Integer command-line values (--trials, --jobs, grid bounds), by the
// strict rule the profile parsers share (src/core/parse_number.h): the
// whole token must be a decimal integer that fits an int.
std::optional<int> ParseInt(std::string_view token);

// One trial's complete output.
struct TrialResult {
  int trial = 0;
  std::uint64_t seed = 0;           // Kernel seed actually used (base + trial).
  osprof::Cycles sim_cycles = 0;    // Simulated end time.
  double wall_seconds = 0.0;        // Host wall clock spent on this trial.
  // layer tag -> profiles collected at that layer via ProfilerSink.
  std::map<std::string, osprof::ProfileSet> layers;
  // layer tag -> layered decomposition (self/fs/driver/net/lock/runq
  // cycles per bucket), for sinks that expose one via layered().
  std::map<std::string, osprof::LayeredProfileSet> layered;
  // Scalar workload/kernel statistics ("files_read", "acquisitions",
  // "contended_acquisitions", "forced_preemptions", "context_switches", ...).
  std::map<std::string, std::uint64_t> counters;
  // Lock-order analysis (src/sim/lock_order.h): one description per
  // deadlock-capable cycle observed in this trial's lock graph.
  std::vector<std::string> lock_cycles;
  // SimRace analysis (src/sim/race_tracker.h): one description per
  // deduped data race observed in this trial.
  std::vector<std::string> race_reports;
};

// Cross-trial dispersion of one operation's histogram.
struct OpDispersion {
  std::string op;
  int first_bucket = -1;  // Non-empty range of the merged histogram.
  int last_bucket = -1;
  // Per-bucket statistics over the per-trial counts, indexed from
  // first_bucket (size last_bucket - first_bucket + 1, empty if no data).
  std::vector<std::uint64_t> min_count;
  std::vector<std::uint64_t> median_count;
  std::vector<std::uint64_t> max_count;
  // Peak stability: FindPeaks per trial; modal_peak_count is the most
  // common peak count and stable_peak_trials how many trials show it.
  int modal_peak_count = 0;
  int stable_peak_trials = 0;
};

struct LayerResult {
  osprof::ProfileSet merged;
  std::vector<OpDispersion> dispersion;  // One entry per operation.
  // Merged layered decomposition (empty when the layer's sink exposes
  // none).  Merged in trial order like `merged`, so bit-identical for any
  // jobs value.
  osprof::LayeredProfileSet layered;
};

struct RunResult {
  std::string scenario;
  RunOptions options;
  std::vector<TrialResult> trials;              // Indexed by trial number.
  std::map<std::string, LayerResult> layers;    // layer tag -> merged view.
  double wall_seconds = 0.0;                    // Whole run, host wall clock.

  // Sum of one counter over all trials (0 if absent everywhere).
  std::uint64_t TotalCounter(const std::string& name) const;

  // Union of the trials' lock-order cycles, deduplicated and sorted.
  // Empty means no trial observed a deadlock-capable acquisition order.
  std::vector<std::string> LockCycles() const;

  // Union of the trials' SimRace reports, deduplicated and sorted.
  // Empty means no trial observed a happens-before violation.
  std::vector<std::string> RaceReports() const;
};

// Runs a single trial synchronously (seed = scenario.kernel.seed + trial).
TrialResult RunTrial(const Scenario& scenario, int trial);

// Runs options.trials trials on options.jobs worker threads and merges.
// Throws std::invalid_argument on a non-positive trial count; workload
// exceptions propagate (the first one raised, by trial order).
RunResult RunScenario(const Scenario& scenario, const RunOptions& options);

// §3.3 Equation 3 on a noise scenario: every sample is one burst of
// `spec.burst` CPU cycles, so a histogram holding tasks * samples * trials
// records in the burst's bucket feeds Equation 3's sum n_b * mid(b) / Q
// directly.  The default burst is bucket 16's exact mid-latency, which
// keeps the prediction free of bucket-rounding error.
struct Equation3Check {
  double predicted = 0.0;  // Forced preemptions the model expects.
  double measured = 0.0;
  // |measured - predicted| / predicted; 1 when the model predicts none
  // but some were measured.
  double rel_err = 0.0;
  double tolerance = 0.0;  // The spec's eq3_tolerance.
  bool pass() const { return rel_err <= tolerance; }
};
Equation3Check CheckEquation3(const Scenario& scenario, const NoiseSpec& spec,
                              int trials,
                              std::uint64_t measured_preemptions);

// Human-readable dispersion table for one layer (the runner's report
// counterpart to RenderAscii for single profiles).
std::string RenderDispersion(const LayerResult& layer, int trials);

}  // namespace osrunner

#endif  // OSPROF_SRC_RUNNER_RUNNER_H_
