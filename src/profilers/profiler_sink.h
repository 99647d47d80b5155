// The unified profiler-sink interface.
//
// Every profiler in this tree -- the simulated-kernel layers of Figure 2
// (user / file-system / driver), the noise profiler, and the real-OS POSIX
// interposition profiler -- ultimately collects one ProfileSet.
// ProfilerSink is that common surface: a layer tag, the profile
// resolution, a snapshot of everything recorded so far, the layered
// decomposition where the sink has one, and a reset.  Orchestration code
// (src/runner) collects from any layer through this interface without
// knowing which profiler produced the data, exactly as the paper's
// analysis tooling consumes /proc profile dumps from any instrumentation
// level.

#ifndef OSPROF_SRC_PROFILERS_PROFILER_SINK_H_
#define OSPROF_SRC_PROFILERS_PROFILER_SINK_H_

#include <string>

#include "src/core/layered.h"
#include "src/core/profile.h"

namespace osprofilers {

class ProfilerSink {
 public:
  virtual ~ProfilerSink() = default;

  // Short tag naming the instrumentation layer this sink collects at
  // ("user", "fs", "driver", "noise", "posix", ...).
  virtual const std::string& layer() const = 0;

  // Bucket resolution of the collected profiles.
  virtual int resolution() const = 0;

  // Snapshot of everything recorded so far; independent of future
  // recording.  Safe to call repeatedly.
  virtual osprof::ProfileSet Collect() const = 0;

  // The exact layered decomposition of this sink's operations, or nullptr
  // for sinks that cannot decompose -- observer-style profilers that
  // record outside any request span, and profilers with no request spans
  // or no simulated kernel underneath.  Owned by the sink, valid until
  // the next layered() or Reset().
  virtual const osprof::LayeredProfileSet* layered() const { return nullptr; }

  // Clears collected measurements (configuration is kept).
  virtual void Reset() = 0;
};

}  // namespace osprofilers

#endif  // OSPROF_SRC_PROFILERS_PROFILER_SINK_H_
