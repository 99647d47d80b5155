// OS-noise profiler: the rtla/osnoise workload, run against the simulated
// kernel's interference channel (ROADMAP item 3).
//
// Each noise task reads the simulated clock in a tight loop of fixed CPU
// bursts; any excess of a burst's wall-clock duration over its nominal
// length is operating-system noise -- time stolen by timer-interrupt
// service, forced preemption (plus the run-queue wait that follows),
// migration, and lock handoff.  Where Linux's osnoise tracer infers the
// culprit from tracepoints, this profiler *subscribes* to the
// InterferenceChannel and attributes every stolen interval to the exact
// event that took it, per task:
//
//            wall = burst + timer service + preemption displacement
//
// The flat histogram of burst wall-clock durations doubles as the §3.3
// validation: the main peak sits at the burst's bucket, and the samples
// displaced near bucket log2(Q) appear at exactly the rate Equation 3
// predicts for a request of tcpu = burst under quantum Q -- the gate's
// noise rater checks measured preemptions against that prediction.
//
// The profiler is a ProfilerSink ("noise" layer) so the runner collects
// it like any other layer, and RenderSummary() prints the per-task
// osnoise-style table shown by `osprof_tool noise`.

#ifndef OSPROF_SRC_PROFILERS_NOISE_PROFILER_H_
#define OSPROF_SRC_PROFILERS_NOISE_PROFILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/profile.h"
#include "src/profilers/profiler_sink.h"
#include "src/sim/interference.h"
#include "src/sim/kernel.h"
#include "src/sim/task.h"

namespace osprofilers {

// Everything one noise task observed: its own loop measurements plus the
// interference events the channel delivered for its thread.
struct NoiseTaskStats {
  std::string name;
  int thread_id = -1;  // Latched at the task's first resume.
  int last_cpu = -1;   // CPU of the most recent dispatch.
  std::uint64_t samples = 0;
  osim::Cycles runtime = 0;     // Sum of burst wall-clock durations.
  osim::Cycles noise = 0;       // Sum of (wall - burst) excesses.
  osim::Cycles max_single = 0;  // Largest single-sample excess.
  // Interference counters, from the channel.
  std::uint64_t preemptions = 0;
  std::uint64_t migrations = 0;
  std::uint64_t timer_ticks = 0;
  osim::Cycles stolen_cycles = 0;  // Timer-IRQ service time.
  osim::Cycles runq_cycles = 0;    // Runnable-to-running intervals.
  std::uint64_t lock_handoffs = 0;
  osim::Cycles lock_cycles = 0;  // Spin handoffs + sleeping-lock waits.

  // Fraction of the task's wall time it actually computed.
  double PercentAvailable() const {
    return runtime == 0
               ? 100.0
               : 100.0 * static_cast<double>(runtime - noise) /
                     static_cast<double>(runtime);
  }
};

class NoiseProfiler : public ProfilerSink,
                      public osim::InterferenceSubscriber {
 public:
  explicit NoiseProfiler(osim::Kernel* kernel, int resolution = 1);
  ~NoiseProfiler() override;

  NoiseProfiler(const NoiseProfiler&) = delete;
  NoiseProfiler& operator=(const NoiseProfiler&) = delete;

  // Returns the noise-task body for slot `index` (spawn it on the
  // kernel): `samples` bursts of `burst` cycles each, recording each
  // burst's wall-clock duration under op "noise<index>".  Create all
  // tasks before the simulation runs.
  osim::Task<void> NoiseTask(int index, std::uint64_t samples,
                             osim::Cycles burst);

  // --- InterferenceSubscriber --------------------------------------------
  void OnInterference(const osim::InterferenceEvent& event) override;

  // --- ProfilerSink ------------------------------------------------------
  const std::string& layer() const override { return layer_; }
  int resolution() const override { return resolution_; }
  // No layered decomposition: noise tasks never open request spans (the
  // whole point is to observe the kernel from outside any request).
  osprof::ProfileSet Collect() const override { return profiles_; }
  void Reset() override;

  const std::vector<NoiseTaskStats>& tasks() const { return tasks_; }

  // Aggregates over all tasks (the runner's counters).
  std::uint64_t TotalSamples() const;
  std::uint64_t TotalPreemptions() const;
  std::uint64_t TotalMigrations() const;
  std::uint64_t TotalTimerTicks() const;
  osim::Cycles TotalRuntime() const;
  osim::Cycles TotalNoise() const;
  osim::Cycles TotalStolen() const;
  osim::Cycles TotalRunQueue() const;
  std::uint64_t TotalLockHandoffs() const;
  osim::Cycles MaxSingle() const;

  // The per-task summary table, rtla-osnoise style.
  std::string RenderSummary() const;

 private:
  // The coroutine behind NoiseTask: separated because coroutine bodies
  // run lazily -- NoiseTask sizes tasks_ eagerly so later NoiseTask calls
  // cannot reallocate state out from under a running body, and the body
  // itself only ever indexes.
  osim::Task<void> RunNoiseTask(std::size_t slot, std::uint64_t samples,
                                osim::Cycles burst);

  // The stats slot for a channel event's thread, or nullptr for threads
  // that are not noise tasks (linear scan; task counts are single-digit).
  NoiseTaskStats* SlotFor(int thread_id);

  osim::Kernel* kernel_;
  std::string layer_ = "noise";
  int resolution_;
  osprof::ProfileSet profiles_;
  std::vector<NoiseTaskStats> tasks_;
  std::vector<osprof::ProbeHandle> ops_;
};

}  // namespace osprofilers

#endif  // OSPROF_SRC_PROFILERS_NOISE_PROFILER_H_
