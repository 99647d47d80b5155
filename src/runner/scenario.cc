#include "src/runner/scenario.h"

#include <stdexcept>
#include <utility>

namespace osrunner {

void ScenarioRegistry::Register(Scenario scenario) {
  if (scenario.name.empty()) {
    throw std::invalid_argument("ScenarioRegistry: scenario name is empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] =
      scenarios_.emplace(scenario.name, std::move(scenario));
  if (!inserted) {
    throw std::invalid_argument("ScenarioRegistry: duplicate scenario '" +
                                it->first + "'");
  }
}

const Scenario* ScenarioRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = scenarios_.find(name);
  return it == scenarios_.end() ? nullptr : &it->second;
}

std::vector<std::string> ScenarioRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(scenarios_.size());
  for (const auto& [name, scenario] : scenarios_) {
    names.push_back(name);
  }
  return names;
}

namespace {

// Figure 1: four processes cloning concurrently on the dual-CPU SMP box;
// the single-process control for differential analysis rides along.
Scenario Fig01(int processes, std::string name, std::string what) {
  Scenario s;
  s.name = std::move(name);
  s.description = "Figure 1: clone() contention, " + what;
  s.kernel.num_cpus = 2;
  s.kernel.seed = 42;
  CloneSpec clone;
  clone.processes = processes;
  s.workload = clone;
  return s;
}

// Figure 3: the zero-byte read preemption probe at the bench's shrunken
// scale (Q = 2^20, 2 x 5e5 requests).
Scenario Fig03(bool kernel_preemption, std::string name) {
  Scenario s;
  s.name = std::move(name);
  s.description = std::string("Figure 3: zero-byte reads, ") +
                  (kernel_preemption ? "preemptive" : "non-preemptive") +
                  " kernel";
  s.kernel.num_cpus = 1;
  s.kernel.quantum = osim::Cycles{1} << 20;
  s.kernel.kernel_preemption = kernel_preemption;
  s.kernel.seed = 7;
  s.fs.cpu_noise_sigma = 0.15;
  ZeroByteReadSpec probe;
  s.workload = probe;
  return s;
}

// Figure 7's grep -r tree: Linux-2.6.11-ish top level.
GrepSpec Fig07Grep() {
  GrepSpec grep;
  grep.tree.top_dirs = 14;
  grep.tree.subdirs_per_dir = 3;
  grep.tree.depth = 2;
  grep.tree.files_per_dir = 16;
  return grep;
}

Scenario Fig07() {
  Scenario s;
  s.name = "fig07";
  s.description =
      "Figure 7: Ext2 readdir/readpage under grep -r (4-peak profile)";
  s.kernel.num_cpus = 1;
  s.kernel.seed = 2024;
  s.workload = Fig07Grep();
  return s;
}

Scenario Fig07Driver() {
  Scenario s = Fig07();
  s.name = "fig07_driver";
  s.description =
      "Figure 7 workload with driver-level profiling (Figure 2, lowest "
      "layer)";
  s.profilers.driver = true;
  return s;
}

Scenario Fig07Cifs() {
  Scenario s;
  s.name = "fig07_cifs";
  s.description = "Figure 7's grep over a CIFS mount";
  s.kernel.num_cpus = 2;
  s.kernel.seed = 1010;
  GrepSpec grep = Fig07Grep();
  grep.tree.top_dirs = 6;  // Network round-trips dominate; keep it brisk.
  grep.over_cifs = true;
  s.workload = grep;
  return s;
}

Scenario Fig06() {
  Scenario s;
  s.name = "fig06";
  s.description =
      "Figure 6: llseek vs O_DIRECT random reads on the shared i_sem";
  s.kernel.num_cpus = 2;
  s.kernel.seed = 6;
  RandomReadSpec rr;
  rr.iterations = 2000;
  s.workload = rr;
  return s;
}

Scenario Postmark() {
  Scenario s;
  s.name = "postmark";
  s.description = "§5.2: postmark-like mail workload on Ext2";
  s.kernel.seed = 52;
  PostmarkSpec pm;
  pm.config.initial_files = 200;
  pm.config.transactions = 1000;
  s.workload = pm;
  return s;
}

// The million-task scale scenario: >= 1M open-loop requests across 64
// simulated CPUs.  Session churn exercises thread reaping, the arrival
// curve (ramp / plateau / ramp-down) keeps dozens-to-hundreds of sessions
// live at once, and per-CPU profile shards absorb the record traffic.
Scenario Scale1M() {
  Scenario s;
  s.name = "scale_1m";
  s.description =
      "Million-request open-loop traffic on 64 CPUs (sharded profiles, "
      "session reaping)";
  s.kernel.num_cpus = 64;
  s.kernel.seed = 71;
  s.kernel.reap_finished = true;
  s.track_races = false;  // Untriaged reports, recorded digest; see Scenario.
  s.profilers.per_cpu_shards = true;
  s.profilers.shard_epoch = osim::Cycles{1} << 24;
  TrafficSpec t;
  // 10,500 sessions x 100 requests = 1,050,000 requests, exact by
  // construction (stratified arrivals).
  t.config.phases = {{1500, osim::Cycles{30'000'000}},
                     {7500, osim::Cycles{90'000'000}},
                     {1500, osim::Cycles{30'000'000}}};
  t.config.requests_per_session = 100;
  s.workload = t;
  return s;
}

// The OS-noise scenario (ROADMAP item 3): four always-runnable noise
// tasks on two CPUs under a small quantum, so forced preemption is the
// dominant interference and its measured frequency is large enough to
// validate §3.3 Equation 3 tightly.  Per task: samples * burst cycles of
// CPU under quantum Q = 2^20 predicts samples * burst / Q forced
// preemptions (375 at the defaults); the gate's noise rater checks the
// measured total against that via CheckEquation3 (runner.h).
Scenario Noise() {
  Scenario s;
  s.name = "noise";
  s.description =
      "OS-noise tracer: 4 noise tasks on 2 CPUs, preemption-dominated "
      "(Equation 3 validation)";
  s.kernel.num_cpus = 2;
  s.kernel.quantum = osim::Cycles{1} << 20;
  s.kernel.seed = 33;
  s.profilers.fs = false;  // No file system: the workload is pure CPU.
  s.workload = NoiseSpec{};
  return s;
}

// One task on one CPU: no competition, so no preemption or migration --
// the residual noise is timer-interrupt service alone, the osnoise
// tracer's idle-system baseline.
Scenario NoiseIdle() {
  Scenario s;
  s.name = "noise_idle";
  s.description =
      "OS-noise tracer baseline: 1 task on 1 CPU, timer ticks only";
  s.kernel.num_cpus = 1;
  s.kernel.quantum = osim::Cycles{1} << 20;
  s.kernel.seed = 33;
  s.profilers.fs = false;
  NoiseSpec n;
  n.tasks = 1;
  s.workload = n;
  return s;
}

// The SimRace fixture family.  Two CPUs so racing turns genuinely
// interleave; the fs profiler is off (there is no file system in these
// workloads -- the profiler attaches at the syscall boundary as "user").
Scenario RaceFixture(RaceFixtureSpec::Kind kind, std::string name,
                     std::string what) {
  Scenario s;
  s.name = std::move(name);
  s.description = "SimRace fixture: " + what;
  s.kernel.num_cpus = 2;
  s.kernel.seed = 99;
  s.profilers.fs = false;
  RaceFixtureSpec spec;
  spec.kind = kind;
  spec.tasks = kind == RaceFixtureSpec::Kind::kReaders ? 3 : 2;
  s.workload = spec;
  return s;
}

// The same shape at test scale: seconds of wall clock, not minutes.
Scenario ScaleSmoke() {
  Scenario s;
  s.name = "scale_smoke";
  s.description = "scale_1m's shape at smoke-test size (3,000 requests)";
  s.kernel.num_cpus = 8;
  s.kernel.seed = 71;
  s.kernel.reap_finished = true;
  s.track_races = false;  // Untriaged reports; see Scenario.
  s.profilers.per_cpu_shards = true;
  s.profilers.shard_epoch = osim::Cycles{1} << 22;
  TrafficSpec t;
  t.config.phases = {{40, osim::Cycles{4'000'000}},
                     {80, osim::Cycles{8'000'000}}};
  t.config.requests_per_session = 25;
  t.config.file_pool = 64;
  s.workload = t;
  return s;
}

// The ROADMAP item 4 cluster: N nodes on one Kernel, one shared file,
// every client on every node hitting it.  cluster_write_shared is the
// DLM ping-pong worst case (pure writes: every EX acquire revokes the
// peer's cached grant and waits out its flush), the attribution test the
// golden's slowest-write-peak >= 80% lock_wait+net criterion pins.
// cluster_read_mostly is the contrast: PR grants shared by all nodes,
// occasionally revoked by a write.
Scenario Cluster(double write_ratio, std::string name, std::string what) {
  Scenario s;
  s.name = std::move(name);
  s.description = "Shared-disk cluster FS over a DLM: " + what;
  ClusterSpec c;
  c.write_ratio = write_ratio;
  s.kernel.num_cpus = 2 * c.nodes;  // Two CPUs per node.
  s.kernel.num_nodes = c.nodes;
  s.kernel.seed = 47;
  s.workload = c;
  return s;
}

}  // namespace

ScenarioRegistry& BuiltinScenarios() {
  static ScenarioRegistry* registry = [] {
    auto* r = new ScenarioRegistry();
    r->Register(Fig01(4, "fig01", "4 processes on 2 CPUs"));
    r->Register(Fig01(1, "fig01_single",
                      "1 process (differential-analysis control)"));
    r->Register(Fig03(true, "fig03"));
    r->Register(Fig03(false, "fig03_nonpreempt"));
    r->Register(Fig06());
    r->Register(Fig07());
    r->Register(Fig07Driver());
    r->Register(Fig07Cifs());
    r->Register(Postmark());
    r->Register(Noise());
    r->Register(NoiseIdle());
    r->Register(Scale1M());
    r->Register(ScaleSmoke());
    r->Register(RaceFixture(RaceFixtureSpec::Kind::kCounter,
                            "race_fixture_counter",
                            "unsynchronized read-modify-write counter"));
    r->Register(RaceFixture(RaceFixtureSpec::Kind::kReaders,
                            "race_fixture_readers",
                            "unsynchronized publish vs concurrent scans"));
    r->Register(RaceFixture(RaceFixtureSpec::Kind::kLockedControl,
                            "race_control_locked",
                            "the counter under a semaphore (negative "
                            "control: no races)"));
    r->Register(Cluster(1.0, "cluster_write_shared",
                        "2 nodes, shared-write lock ping-pong"));
    r->Register(Cluster(0.1, "cluster_read_mostly",
                        "2 nodes, cached PR grants with occasional "
                        "revoking writes"));
    return r;
  }();
  return *registry;
}

}  // namespace osrunner
