// Declarative scenario specifications for the multi-trial runner.
//
// Every figure/table bench in this repository used to hand-assemble its
// kernel + disk + file system + workload inline and run one seed in one
// thread.  A Scenario captures that assembly declaratively -- kernel,
// disk, fs and net knobs plus the workload and its parameters and a base
// seed -- so the same experiment can be (a) named and looked up in a
// registry, (b) run N times with independent seeds on a thread pool, and
// (c) reproduced exactly from the command line via
// `osprof_tool run <scenario>`.
//
// Scenarios are plain data: building the simulation from one (kernel,
// disk, fs, profilers, workload threads) is the runner's job
// (src/runner/runner.h).

#ifndef OSPROF_SRC_RUNNER_SCENARIO_H_
#define OSPROF_SRC_RUNNER_SCENARIO_H_

#include <map>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "src/fs/cluster_fs.h"
#include "src/fs/ext2fs.h"
#include "src/net/cifs.h"
#include "src/net/dlm.h"
#include "src/net/net.h"
#include "src/sim/disk.h"
#include "src/sim/kernel.h"
#include "src/workloads/traffic.h"
#include "src/workloads/workloads.h"

namespace osrunner {

// Which instrumentation layers a scenario attaches (Figure 2).  The
// syscall/user layer is implied by the workload: clone-style workloads
// record into a SimProfiler labelled "user"; file-system workloads attach
// it as the FoSgen-style in-FS instrumentation labelled "fs".
struct ProfilerSpec {
  bool fs = true;        // SimProfiler at the FS (or syscall) boundary.
  bool driver = false;   // DriverProfiler on the block request stream.
  // Per-CPU profile sharding (million-task scale): the SimProfiler records
  // into private per-CPU shards, folded into the base sets every
  // `shard_epoch` cycles (0 = only at collection).  Serialized output is
  // byte-identical to the unsharded profiler for any CPU count or epoch
  // length -- merging is exact integer addition.
  bool per_cpu_shards = false;
  osim::Cycles shard_epoch = 0;
};

// --- Workloads --------------------------------------------------------------

// grep -r over a freshly built kernel-source-like tree (Figures 7/8/10).
// On a remote `mount` the tree lives on the simulated server's Ext2 and
// the grep runs against a CifsMount configured by `cifs` (the net knobs)
// or an NfsMount with NfsConfig's defaults.
struct GrepSpec {
  enum class Mount { kLocal, kCifs, kNfs };
  osworkloads::TreeSpec tree;
  std::string root = "/usr/src/linux";
  double per_byte_cpu = 0.5;
  int processes = 1;
  Mount mount = Mount::kLocal;
  osnet::CifsConfig cifs;
};

// The §3.3 preemption probe: tight zero-byte read loops (Figure 3).
struct ZeroByteReadSpec {
  std::string path = "/probe";
  std::uint64_t file_bytes = 4096;
  std::uint64_t requests = 500'000;
  osim::Cycles user_cycles = 120;
  int processes = 2;
};

// Random llseek + O_DIRECT read of one shared file (Figure 6).
struct RandomReadSpec {
  std::string path = "/db";
  std::uint64_t file_bytes = std::uint64_t{8} << 20;
  int iterations = 1000;
  int processes = 2;
};

// Concurrent clone() calls contending on the process-table lock
// (Figure 1).  Records at the syscall boundary into layer "user".
struct CloneSpec {
  int processes = 4;
  int iterations = 4000;
  osim::Cycles lock_free_cpu = 4'000;
  osim::Cycles locked_cpu = 2'000;
  osim::Cycles user_think_cpu = 60'000;
};

// The §5.2 postmark-like mail workload.
struct PostmarkSpec {
  osworkloads::PostmarkConfig config;
};

// Open-loop traffic over the FS (the scale_1m scenario): an arrival-rate
// curve spawns short-lived client sessions independent of completions
// (src/workloads/traffic.h).
struct TrafficSpec {
  osworkloads::TrafficConfig config;
};

// The rtla/osnoise-style OS-noise workload: `tasks` clock-reading loops of
// `samples` bursts of `burst` cycles each, with every wall-clock excess
// attributed to its interference source via the InterferenceChannel
// (src/profilers/noise_profiler.h).  The default burst is 3/2 * 2^16 --
// the exact mid-latency of bucket 16 -- so the §3.3 Equation 3 prediction
// computed from the sample histogram carries no bucket-rounding error and
// the gate's noise rater can hold a tight tolerance.
struct NoiseSpec {
  int tasks = 4;
  std::uint64_t samples = 4000;
  osim::Cycles burst = 98'304;
  // Relative |measured - predicted| / predicted the gate's Equation 3
  // rater accepts (the paper reports agreement within a third).
  double eq3_tolerance = 0.25;
};

// SimRace fixture family (src/sim/race_tracker.h): `tasks` coroutines
// hammering one Shared cell.  kCounter and kReaders race by
// construction and seed the gate's [races] true-positive check;
// kLockedControl runs the same access pattern under a semaphore and
// must come back clean.
struct RaceFixtureSpec {
  enum class Kind { kCounter, kReaders, kLockedControl };
  Kind kind = Kind::kCounter;
  int tasks = 2;
  int rounds = 4;
  osim::Cycles stride = 2'000;
};

// The N-node shared-disk cluster (ROADMAP item 4): one ClusterVolume on
// a shared SimDisk, one ClusterFsNode mount per node, clients_per_node
// tasks per node hammering one shared file through the DLM.  The
// scenario's kernel config must partition num_cpus into `nodes` nodes
// (the builders below set kernel.num_nodes = nodes).
struct ClusterSpec {
  int nodes = 2;
  int clients_per_node = 1;
  int iterations = 300;
  double write_ratio = 1.0;        // 1.0 = pure shared-write ping-pong.
  std::string path = "/shared/data";
  std::uint64_t file_bytes = 1 << 20;
  std::uint64_t io_bytes = 16'384;
  osim::Cycles think_cycles = 30'000;
  osnet::NetConfig net;            // The fabric's per-link wire model.
  osnet::DlmConfig dlm;
  osfs::ClusterFsConfig cfs;
};

using WorkloadSpec = std::variant<GrepSpec, ZeroByteReadSpec, RandomReadSpec,
                                  CloneSpec, PostmarkSpec, TrafficSpec,
                                  NoiseSpec, RaceFixtureSpec, ClusterSpec>;

// --- The scenario -----------------------------------------------------------

struct Scenario {
  std::string name;
  std::string description;
  // kernel.seed is the scenario's *base* seed; trial t runs with
  // seed base + t, so trials are independent but the whole run is
  // reproducible from the spec alone.
  osim::KernelConfig kernel;
  osim::DiskConfig disk;
  osfs::Ext2Config fs;
  ProfilerSpec profilers;
  WorkloadSpec workload = GrepSpec{};
  // SimRace happens-before tracking (src/sim/race_tracker.h).  Free in
  // simulated time, so profiles are byte-identical either way, and its
  // clocks are sized by the tasks still live.  Only the scale scenarios
  // turn it off: `osprof_tool races scale_smoke` reports 11 races not yet
  // sorted into model bugs and false positives, and tracking would add
  // race_* counters to the scale_1m digest perfbench records.
  bool track_races = true;
};

// --- Registry ---------------------------------------------------------------

class ScenarioRegistry {
 public:
  // Registers a scenario under its name; throws std::invalid_argument on an
  // empty name or a duplicate.
  void Register(Scenario scenario);

  // Returns the scenario named `name`, or nullptr.  The pointer stays valid
  // for the registry's lifetime (scenarios are never removed).
  const Scenario* Find(const std::string& name) const;

  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Scenario> scenarios_;
};

// The process-wide registry, pre-populated with the built-in figure
// scenarios (fig01, fig01_single, fig03, fig03_nonpreempt, fig07,
// fig07_cifs, fig10, fig10_linux, nfs_grep, ...).
ScenarioRegistry& BuiltinScenarios();

}  // namespace osrunner

#endif  // OSPROF_SRC_RUNNER_SCENARIO_H_
