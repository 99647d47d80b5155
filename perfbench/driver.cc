// Benchmark driver behind perfbench/run.py.
//
//   perfbench_run pass  --workload W [--seconds S] [--passes N] [--no-races]
//   perfbench_run probe --workload W
//   perfbench_run digest-check --workload W
//   perfbench_run hostloop
//   perfbench_trace tables
//   perfbench_trace layers --workload W --seconds S --spans FILE
//                          [--scenarios A,B,...]
//
// `pass` runs one warm-up pass of scale_1m or cluster_rw and then timed
// passes until S seconds are used (or exactly N passes), checking every
// pass's outputs.  `probe` is the zero-work start-up probe behind setup_s.
// `digest-check` shows which counters the simulated-output digest ignores.
// `hostloop` times a fixed integer loop, the host-speed reading printed
// with every run.  The trace binary adds `tables` (the first
// osprof::BucketBounds call of a fresh process) and `layers`, the traced
// run behind the per-layer metrics, which also takes gate_corpus (its
// scenarios, in pass order, given by --scenarios).  Every mode prints
// JSON objects on stdout.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/histogram.h"
#include "src/core/jsonw.h"
#include "src/core/layered.h"
#include "src/core/peaks.h"
#include "src/core/profile.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "src/sim/disk.h"
#include "src/sim/kernel.h"
#include "src/workloads/traffic.h"
#include "src/workloads/workloads.h"

#if PERFBENCH_TRACE
#include "perfbench/count_new.h"
#include "src/tools/gate_command.h"
#endif

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Trials per cluster_rw half (seeds base + t, as RunScenario gives them).
constexpr int kClusterTrials = 32;

// Counters that describe the host's bookkeeping, not what is simulated:
// the simulator heap estimate (container capacities), the profile shards'
// flush epochs (merging is exact at any epoch count) and SimRace's own
// work.  A host-only change may move them, so neither the simulated-output
// digest nor a toggle's signature includes them.
const std::set<std::string> kHostCounters = {
    "race_accesses_checked", "race_cells_tracked", "shard_flushes",
    "sim_heap_bytes"};

struct Part {
  osrunner::Scenario scenario;
  int trials = 1;
};

const osrunner::Scenario& Registered(const std::string& name) {
  const osrunner::Scenario* s = osrunner::BuiltinScenarios().Find(name);
  if (s == nullptr) {
    throw std::runtime_error("unknown scenario " + name);
  }
  return *s;
}

// The scenarios one pass of a workload runs, as registered.  gate_corpus
// runs `corpus`.
std::vector<Part> WorkloadParts(const std::string& workload,
                                const std::vector<std::string>& corpus = {}) {
  std::vector<Part> parts;
  if (workload == "scale_1m") {
    parts.push_back(Part{Registered("scale_1m"), 1});
  } else if (workload == "cluster_rw") {
    for (const char* name : {"cluster_write_shared", "cluster_read_mostly"}) {
      parts.push_back(Part{Registered(name), kClusterTrials});
    }
  } else if (workload == "gate_corpus") {
    if (corpus.empty()) {
      throw std::runtime_error("gate_corpus needs --scenarios");
    }
    for (const std::string& name : corpus) {
      parts.push_back(Part{Registered(name), 1});
    }
  } else {
    throw std::runtime_error("unknown workload " + workload);
  }
  return parts;
}

// The zero-work copy of a part: the same machine and clients, no
// requests.  Clients still open and close their files, so the profilers
// record (and build their bucket tables) as a real first pass does.
Part ZeroWork(Part part) {
  if (auto* t = std::get_if<osrunner::TrafficSpec>(&part.scenario.workload)) {
    t->config.phases = {{1, t->config.phases.front().duration}};
    t->config.requests_per_session = 0;
  } else if (auto* c =
                 std::get_if<osrunner::ClusterSpec>(&part.scenario.workload)) {
    c->iterations = 0;
  }
  part.trials = 1;
  return part;
}

// The warm-up copy of a part: every code path and lazy table of a real
// pass, at a tenth of scale_1m's sessions (a full pass there takes
// seconds that are better spent on timed passes).
Part Warmup(Part part) {
  if (auto* t = std::get_if<osrunner::TrafficSpec>(&part.scenario.workload)) {
    for (osworkloads::TrafficPhase& phase : t->config.phases) {
      phase.sessions = std::max(1, phase.sessions / 10);
    }
  }
  return part;
}

std::uint64_t ProfiledOps(const osrunner::RunResult& r) {
  std::uint64_t ops = 0;
  for (const auto& [layer, lr] : r.layers) {
    ops += lr.merged.TotalOperations();
  }
  return ops;
}

std::uint64_t Fnv1a(const std::string& text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Everything a run simulates: per-trial sim_cycles and counters (less the
// host counters), the race and lock-order findings, and the serialized
// merged .prof and .layers of every layer.  A pure host speed-up leaves
// this byte-identical.
std::string SimulatedText(const osrunner::RunResult& r) {
  std::ostringstream os;
  os << r.scenario << "\n";
  for (const osrunner::TrialResult& t : r.trials) {
    os << "trial " << t.trial << " seed " << t.seed << " cycles "
       << t.sim_cycles << "\n";
    for (const auto& [name, value] : t.counters) {
      if (kHostCounters.count(name) == 0) {
        os << "  " << name << "=" << value << "\n";
      }
    }
    for (const std::string& s : t.race_reports) {
      os << "  race " << s << "\n";
    }
    for (const std::string& s : t.lock_cycles) {
      os << "  lock " << s << "\n";
    }
  }
  std::map<std::string, osprof::LayeredProfileSet> layered;
  for (const auto& [layer, lr] : r.layers) {
    os << "layer " << layer << "\n";
    lr.merged.Serialize(os);
    if (!lr.layered.empty()) {
      layered.emplace(layer, lr.layered);
    }
  }
  osprof::SerializeLayers(layered, os);
  return os.str();
}

// Fraction of cluster_write_shared's slowest write peak spent in
// lock_wait + net; -1 when the decomposition is missing.
double SlowestWritePeakLockNetShare(const osrunner::RunResult& r) {
  const auto it = r.layers.find("cluster");
  if (it == r.layers.end()) {
    return -1.0;
  }
  const osprof::Profile* write = it->second.merged.Find("write");
  const osprof::LayeredProfile* layered = it->second.layered.Find("write");
  if (write == nullptr || layered == nullptr) {
    return -1.0;
  }
  const std::vector<osprof::Peak> peaks = osprof::FindPeaks(write->histogram());
  if (peaks.empty()) {
    return -1.0;
  }
  const osprof::Peak& slowest = peaks.back();
  osprof::Cycles lock_net = 0;
  osprof::Cycles total = 0;
  for (const auto& [bucket, lb] : layered->buckets()) {
    if (bucket >= slowest.first_bucket && bucket <= slowest.last_bucket) {
      lock_net +=
          lb.cycles[osprof::kLayerLockWait] + lb.cycles[osprof::kLayerNet];
      total += lb.TotalCycles();
    }
  }
  if (total == 0) {
    return -1.0;
  }
  return static_cast<double>(lock_net) / static_cast<double>(total);
}

// The workload checks on one part's result; failures are appended.
int CheckPart(const Part& part, const osrunner::RunResult& r,
              std::vector<std::string>* failures) {
  int checks = 0;
  auto check = [&](bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      failures->push_back(part.scenario.name + ": " + what);
    }
  };
  if (const auto* t =
          std::get_if<osrunner::TrafficSpec>(&part.scenario.workload)) {
    std::uint64_t sessions = 0;
    for (const osworkloads::TrafficPhase& phase : t->config.phases) {
      sessions += static_cast<std::uint64_t>(phase.sessions);
    }
    check(r.TotalCounter("requests") ==
              osworkloads::PlannedRequests(t->config),
          "completed requests != PlannedRequests");
    check(r.TotalCounter("sessions") == sessions,
          "finished sessions != planned sessions");
  }
  if (std::holds_alternative<osrunner::ClusterSpec>(part.scenario.workload)) {
    check(r.RaceReports().empty(), "a trial raced");
    if (part.scenario.name == "cluster_write_shared") {
      check(SlowestWritePeakLockNetShare(r) >= 0.8,
            "slowest write peak is under 80% lock_wait+net");
    }
  }
  return checks;
}

// The host-speed reading: a fixed dependent integer loop, ns per step.
double HostLoopNs() {
  constexpr std::uint64_t kSteps = std::uint64_t{1} << 24;
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 88172645463325252ull;
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ns = SecondsSince(start) * 1e9 / static_cast<double>(kSteps);
  volatile std::uint64_t sink = x;
  (void)sink;
  return ns;
}

// The process's own peak resident set (VmHWM).  getrusage's ru_maxrss
// would also count the image of the process that spawned this one.
double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct Args {
  std::string mode;
  std::string workload;
  double seconds = 0.0;
  int passes = 0;  // > 0: exactly this many timed passes.
  bool no_races = false;
  std::string spans_path;
  std::vector<std::string> scenarios;
};

Args ParseArgs(int argc, char** argv) {
  if (argc < 2) {
    throw std::runtime_error("missing mode");
  }
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::runtime_error("missing value for " + flag);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--passes") {
      a.passes = std::stoi(value());
    } else if (flag == "--no-races") {
      a.no_races = true;
    } else if (flag == "--spans") {
      a.spans_path = value();
    } else if (flag == "--scenarios") {
      std::stringstream names(value());
      for (std::string name; std::getline(names, name, ',');) {
        a.scenarios.push_back(name);
      }
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  return a;
}

void Emit(const osjson::Value& doc) {
  std::printf("%s\n", doc.Dump().c_str());
  std::fflush(stdout);
}

osjson::Value Strings(const std::vector<std::string>& items) {
  osjson::Value array = osjson::Value::Array();
  for (const std::string& item : items) {
    array.Append(osjson::Value::Str(item));
  }
  return array;
}

// --- pass -------------------------------------------------------------------

struct PassOutcome {
  double wall_s = 0.0;
  std::uint64_t ops = 0;
  int checks = 0;
  std::vector<std::string> failures;
  std::string digest;
};

PassOutcome RunPass(const std::vector<Part>& parts) {
  PassOutcome out;
  std::string simulated;
  for (const Part& part : parts) {
    const Clock::time_point start = Clock::now();
    const osrunner::RunResult r =
        osrunner::RunScenario(part.scenario, {part.trials, 1});
    out.wall_s += SecondsSince(start);
    out.ops += ProfiledOps(r);
    out.checks += CheckPart(part, r, &out.failures);
    simulated += SimulatedText(r);
  }
  out.digest = Hex(Fnv1a(simulated));
  return out;
}

void PrintPass(int index, bool warmup, const PassOutcome& p) {
  osjson::Value doc = osjson::Value::Object();
  doc.Set("pass", osjson::Value::Int(index));
  doc.Set("warmup", osjson::Value::Bool(warmup));
  doc.Set("wall_s", osjson::Value::Double(p.wall_s));
  doc.Set("ops", osjson::Value::Uint(p.ops));
  doc.Set("checks", osjson::Value::Int(p.checks));
  doc.Set("failures", Strings(p.failures));
  doc.Set("digest", osjson::Value::Str(p.digest));
  doc.Set("peak_rss_mib", osjson::Value::Double(PeakRssMib()));
  Emit(doc);
}

int PassMode(const Args& a) {
  std::vector<Part> parts = WorkloadParts(a.workload);
  if (a.workload == "gate_corpus") {
    throw std::runtime_error("gate_corpus passes are osprof_tool processes");
  }
  std::vector<Part> warmup;
  for (Part& p : parts) {
    if (a.no_races) {
      p.scenario.track_races = false;
    }
    warmup.push_back(Warmup(p));
  }
  PrintPass(0, true, RunPass(warmup));
  const Clock::time_point start = Clock::now();
  double last = 0.0;
  for (int i = 1;; ++i) {
    if (a.passes > 0 ? i > a.passes
                     : i > 1 && SecondsSince(start) + last > a.seconds) {
      break;
    }
    const Clock::time_point pass_start = Clock::now();
    PrintPass(i, false, RunPass(parts));
    last = SecondsSince(pass_start);
  }
  osjson::Value done = osjson::Value::Object();
  done.Set("done", osjson::Value::Bool(true));
  Emit(done);
  return 0;
}

int ProbeMode(const Args& a) {
  std::uint64_t ops = 0;
  std::uint64_t requests = 0;
  for (const Part& part : WorkloadParts(a.workload)) {
    const Part zero = ZeroWork(part);
    const osrunner::RunResult r =
        osrunner::RunScenario(zero.scenario, {zero.trials, 1});
    ops += ProfiledOps(r);
    requests += r.TotalCounter("requests") + r.TotalCounter("reads") +
                r.TotalCounter("writes");
  }
  osjson::Value doc = osjson::Value::Object();
  doc.Set("ops", osjson::Value::Uint(ops));
  doc.Set("requests", osjson::Value::Uint(requests));
  Emit(doc);
  return 0;
}

// Bumps each counter of each part's first trial in turn, on a warm-up-sized
// pass, and prints the counters (as scenario/counter) whose bump leaves the
// digest unchanged ("ignored") and those whose bump changes it ("counted").
int DigestCheckMode(const Args& a) {
  std::vector<std::string> ignored;
  std::vector<std::string> counted;
  for (const Part& part : WorkloadParts(a.workload)) {
    const Part small = Warmup(part);
    osrunner::RunResult r =
        osrunner::RunScenario(small.scenario, {small.trials, 1});
    const std::string digest = Hex(Fnv1a(SimulatedText(r)));
    for (auto& [name, value] : r.trials.front().counters) {
      ++value;
      const bool same = Hex(Fnv1a(SimulatedText(r))) == digest;
      --value;
      (same ? ignored : counted).push_back(part.scenario.name + "/" + name);
    }
  }
  osjson::Value doc = osjson::Value::Object();
  doc.Set("ignored", Strings(ignored));
  doc.Set("counted", Strings(counted));
  Emit(doc);
  return 0;
}

#if PERFBENCH_TRACE

std::uint64_t TrialSimCycles(const osrunner::RunResult& r) {
  std::uint64_t cycles = 0;
  for (const osrunner::TrialResult& t : r.trials) {
    cycles += t.sim_cycles;
  }
  return cycles;
}

double TrialSeconds(const osrunner::RunResult& r) {
  double s = 0.0;
  for (const osrunner::TrialResult& t : r.trials) {
    s += t.wall_seconds;
  }
  return s;
}

// The simulated outputs a toggle must not move: per-trial sim_cycles and
// every counter but the host counters and SimRace's, which the toggled-off
// runs do not report.
using Signature = std::map<std::string, std::uint64_t>;

Signature SimSignature(const osrunner::RunResult& r) {
  Signature sig;
  for (const osrunner::TrialResult& t : r.trials) {
    const std::string trial = "trial" + std::to_string(t.trial) + ".";
    sig[trial + "sim_cycles"] = t.sim_cycles;
    for (const auto& [name, value] : t.counters) {
      if (kHostCounters.count(name) == 0 && name.rfind("race_", 0) != 0) {
        sig[trial + name] = value;
      }
    }
  }
  return sig;
}

// The keys on which two signatures differ, comma-separated.
std::string SignatureDiff(const Signature& a, const Signature& b) {
  std::string diff;
  auto note = [&diff](const std::string& key) {
    diff += (diff.empty() ? "" : ", ") + key;
  };
  for (const auto& [key, value] : a) {
    const auto it = b.find(key);
    if (it == b.end() || it->second != value) {
      note(key);
    }
  }
  for (const auto& [key, value] : b) {
    if (a.find(key) == a.end()) {
      note(key);
    }
  }
  return diff;
}

// --- spans ------------------------------------------------------------------

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  std::uint64_t allocs = 0;
  double Seconds() const { return end_s - start_s; }
};

// Spans kept in memory and written out at exit.  Recording is off in the
// untraced passes of a traced run; the allocation counter runs only while
// recording is on.
class Tracer {
 public:
  void set_recording(bool on) {
    recording_ = on;
    perfbench::SetAllocationCounting(on);
  }
  // The tracer's own bookkeeping runs with the allocation counter paused,
  // so a span's count is exactly the traced call's allocations.
  int Begin(std::string name) {
    if (!recording_) {
      return -1;
    }
    perfbench::SetAllocationCounting(false);
    Span s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    Span& span = spans_.back();
    span.allocs = perfbench::AllocationCount();
    span.start_s = std::chrono::duration<double>(Clock::now() - epoch_).count();
    perfbench::SetAllocationCounting(true);
    return stack_.back();
  }

  // Returns the finished span (an empty one when not recording).
  Span End(int id) {
    if (id < 0) {
      return Span{};
    }
    const double end_s =
        std::chrono::duration<double>(Clock::now() - epoch_).count();
    perfbench::SetAllocationCounting(false);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = end_s;
    s.allocs = perfbench::AllocationCount() - s.allocs;
    stack_.pop_back();
    Span copy = s;
    perfbench::SetAllocationCounting(true);
    return copy;
  }

  void Write(const std::string& path) const {
    osjson::Value array = osjson::Value::Array();
    for (const Span& span : spans_) {
      osjson::Value entry = osjson::Value::Object();
      entry.Set("name", osjson::Value::Str(span.name));
      entry.Set("start_s", osjson::Value::Double(span.start_s));
      entry.Set("end_s", osjson::Value::Double(span.end_s));
      entry.Set("parent", osjson::Value::Int(span.parent));
      entry.Set("allocs", osjson::Value::Uint(span.allocs));
      array.Append(std::move(entry));
    }
    osjson::Value doc = osjson::Value::Object();
    doc.Set("spans", std::move(array));
    std::ofstream f(path);
    f << doc.Dump() << "\n";
    if (!f) {
      throw std::runtime_error("cannot write " + path);
    }
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  bool recording_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

osjson::Value Numbers(const std::vector<double>& values) {
  osjson::Value array = osjson::Value::Array();
  for (const double v : values) {
    array.Append(osjson::Value::Double(v));
  }
  return array;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int TablesMode() {
  const Clock::time_point start = Clock::now();
  const std::size_t n = osprof::BucketBounds(1).size();
  const double seconds = SecondsSince(start);
  osjson::Value doc = osjson::Value::Object();
  doc.Set("bucket_tables_s", osjson::Value::Double(seconds));
  doc.Set("entries", osjson::Value::Uint(n));
  Emit(doc);
  return 0;
}

// One traced pass's per-part readings.
struct PartTrace {
  double run_s = 0.0;    // RunScenario span.
  double trial_s = 0.0;  // Σ TrialResult::wall_seconds.
  double gate_s = 0.0;   // RunGateCommand span (gate_corpus).
  double parse_s = 0.0;  // Golden parse span (gate_corpus).
  double raters_s = 0.0;  // Rater span (gate_corpus).
  std::map<std::string, std::uint64_t> counts;  // Must repeat exactly.
  std::string digest;
};

// The golden parse and the gate's four raters, as the gate runs them,
// over every layer of one scenario.  Every score must be 0; returns the
// number of scores checked.
int RateAgainstGoldens(const std::string& scenario,
                       const osrunner::RunResult& r, Tracer* tracer,
                       PartTrace* pt, std::vector<std::string>* failures) {
  int checks = 0;
  std::map<std::string, osprof::ProfileSet> goldens;
  const int parse = tracer->Begin("core.golden_parse:" + scenario);
  for (const auto& [layer, lr] : r.layers) {
    std::ifstream f("tests/golden/" + scenario + "." + layer + ".prof");
    if (!f) {
      failures->push_back(scenario + ": missing golden for layer " + layer);
      continue;
    }
    goldens.emplace(layer, osprof::ProfileSet::Parse(f));
  }
  std::ifstream lf("tests/golden/" + scenario + ".layers");
  if (lf) {
    osprof::ParseLayers(lf);
  }
  pt->parse_s = tracer->End(parse).Seconds();
  const int raters = tracer->Begin("core.raters:" + scenario);
  for (const auto& [layer, golden] : goldens) {
    for (const osprof::CompareMethod method :
         {osprof::CompareMethod::kEarthMovers,
          osprof::CompareMethod::kChiSquare, osprof::CompareMethod::kTotalOps,
          osprof::CompareMethod::kTotalLatency}) {
      osprof::AnalysisOptions options;
      options.method = method;
      options.score_threshold = osprof::DefaultThreshold(method);
      const osprof::AnalysisReport report = osprof::CompareProfileSets(
          golden, r.layers.at(layer).merged, options);
      checks += static_cast<int>(report.pairs.size());
      for (const osprof::PairReport& pair : report.pairs) {
        if (pair.score != 0.0) {
          failures->push_back(scenario + ": " + layer + "/" + pair.op_name +
                              " scores off its golden");
        }
      }
    }
  }
  pt->raters_s = tracer->End(raters).Seconds();
  return checks;
}

// The traced run.  Rounds alternate an untraced pass, a traced pass and
// the toggle runs while another round fits in the time budget (at least
// two rounds, so every count can be checked to repeat).  Simulated
// outputs of every traced and toggled run are compared with the untraced
// warm-up; any difference refuses the per-layer numbers.
int LayersMode(const Args& a) {
  const bool gate = a.workload == "gate_corpus";
  const std::vector<Part> parts = WorkloadParts(a.workload, a.scenarios);
  Tracer tracer;
  std::vector<std::string> failures;
  std::vector<std::string> drift;
  int checks = 0;
  auto expect = [&](bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      failures.push_back(what);
    }
  };
  const std::string gate_json = a.spans_path + ".gate.json";
  auto run_gate = [&](const std::string& scenario) {
    std::ostringstream sink;
    return ostools::RunGateCommand(
        {scenario, "--trials=1", "--jobs=1", "--json=" + gate_json}, sink,
        sink);
  };
  // RunScenario under a span, with the counts that must repeat exactly.
  auto traced_run = [&](const Part& part, PartTrace* pt) {
    const int s = tracer.Begin("runner.RunScenario:" + part.scenario.name);
    osrunner::RunResult r =
        osrunner::RunScenario(part.scenario, {part.trials, 1});
    const Span span = tracer.End(s);
    pt->run_s = span.Seconds();
    pt->trial_s = TrialSeconds(r);
    for (const osrunner::TrialResult& trial : r.trials) {
      for (const auto& [name, value] : trial.counters) {
        pt->counts[name] += value;
      }
    }
    pt->counts["sim_cycles"] = TrialSimCycles(r);
    pt->counts["ops"] = ProfiledOps(r);
    pt->counts["run_allocs"] = span.allocs;
    pt->digest = Hex(Fnv1a(SimulatedText(r)));
    return r;
  };

  // Warm-up: the untraced reference outputs (and the gate's first run).
  std::vector<std::string> reference_digest;
  std::vector<Signature> reference_sig;
  for (const Part& part : parts) {
    const osrunner::RunResult r =
        osrunner::RunScenario(part.scenario, {part.trials, 1});
    reference_digest.push_back(Hex(Fnv1a(SimulatedText(r))));
    reference_sig.push_back(SimSignature(r));
    if (gate) {
      expect(run_gate(part.scenario.name) == 0,
             part.scenario.name + ": warm-up gate failed");
    }
  }

  const std::size_t n = parts.size();
  std::vector<double> untraced_wall, traced_wall, race_delta, spine_delta;
  std::vector<std::vector<PartTrace>> traced;  // [round][part]
  const Clock::time_point start = Clock::now();
  double last_round = 0.0;
  for (int round = 0;
       round < 2 || SecondsSince(start) + last_round <= a.seconds; ++round) {
    const Clock::time_point round_start = Clock::now();
    // Untraced pass: the workload's own calls, spans and counting off.
    std::vector<double> registered_s(n, 0.0);
    double wall = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const Clock::time_point t = Clock::now();
      if (gate) {
        run_gate(parts[i].scenario.name);
      } else {
        osrunner::RunScenario(parts[i].scenario, {parts[i].trials, 1});
      }
      registered_s[i] = SecondsSince(t);
      wall += registered_s[i];
    }
    untraced_wall.push_back(wall);

    // Traced pass: the same calls under spans and the allocation counter.
    // On gate_corpus each gate span is followed by the gate's parts called
    // one by one from outside, so its self time compares like with like.
    tracer.set_recording(true);
    std::vector<PartTrace> pass(n);
    const int pass_span = tracer.Begin("pass");
    wall = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const Part& part = parts[i];
      PartTrace& pt = pass[i];
      if (gate) {
        const int s = tracer.Begin("tools.gate:" + part.scenario.name);
        const int status = run_gate(part.scenario.name);
        const Span span = tracer.End(s);
        pt.gate_s = span.Seconds();
        pt.counts["gate_allocs"] = span.allocs;
        expect(status == 0, part.scenario.name + ": gate exit " +
                                std::to_string(status));
        wall += pt.gate_s;
        const osrunner::RunResult r = traced_run(part, &pt);
        checks += RateAgainstGoldens(part.scenario.name, r, &tracer, &pt,
                                     &failures);
      } else {
        const osrunner::RunResult r = traced_run(part, &pt);
        checks += CheckPart(part, r, &failures);
        wall += pt.run_s;
      }
    }
    traced_wall.push_back(wall);
    tracer.End(pass_span);
    tracer.set_recording(false);
    for (std::size_t i = 0; i < n; ++i) {
      expect(pass[i].digest == reference_digest[i],
             parts[i].scenario.name +
                 ": traced run's simulated outputs differ from untraced");
    }
    traced.push_back(std::move(pass));

    // Toggles, untraced: SimRace off, then the fs profiler off as well.
    double race = 0.0;
    double spine = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      osrunner::Scenario s = parts[i].scenario;
      const osrunner::RunOptions options{parts[i].trials, 1};
      double on_s = registered_s[i];
      if (gate) {
        const Clock::time_point t = Clock::now();
        osrunner::RunScenario(s, options);
        on_s = SecondsSince(t);
      }
      double races_off_s = on_s;
      if (s.track_races) {
        s.track_races = false;
        const Clock::time_point t = Clock::now();
        const osrunner::RunResult r = osrunner::RunScenario(s, options);
        races_off_s = SecondsSince(t);
        race += on_s - races_off_s;
        const std::string diff =
            SignatureDiff(SimSignature(r), reference_sig[i]);
        expect(diff.empty(),
               s.name + ": SimRace toggle moved simulated outputs: " + diff);
      }
      if (s.profilers.fs) {
        s.profilers.fs = false;
        const Clock::time_point t = Clock::now();
        const osrunner::RunResult r = osrunner::RunScenario(s, options);
        spine += races_off_s - SecondsSince(t);
        const std::string diff =
            SignatureDiff(SimSignature(r), reference_sig[i]);
        expect(diff.empty(),
               s.name + ": profiler toggle moved simulated outputs: " + diff);
      }
    }
    race_delta.push_back(race);
    spine_delta.push_back(spine);
    last_round = SecondsSince(round_start);
  }

  // Every count must repeat exactly across traced passes: a difference is
  // drift in the program, not host noise.
  for (std::size_t round = 1; round < traced.size(); ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      for (const auto& [name, value] : traced[0][i].counts) {
        ++checks;
        const auto it = traced[round][i].counts.find(name);
        const std::uint64_t other =
            it == traced[round][i].counts.end() ? ~std::uint64_t{0}
                                                : it->second;
        if (other != value) {
          drift.push_back(parts[i].scenario.name + "/" + name + ": " +
                          std::to_string(value) + " vs " +
                          std::to_string(other) + " in round " +
                          std::to_string(round));
        }
      }
    }
  }

  // The workloads layer's mkfs-time image construction, each on a fresh
  // file system.
  std::vector<double> build_tree, traffic_files;
  for (int rep = 0; rep < 5; ++rep) {
    double tree_s = 0.0;
    double files_s = 0.0;
    for (const Part& part : parts) {
      osim::Kernel kernel(part.scenario.kernel);
      osim::SimDisk disk(&kernel, part.scenario.disk);
      osfs::Ext2SimFs fs(&kernel, &disk, part.scenario.fs);
      if (const auto* g =
              std::get_if<osrunner::GrepSpec>(&part.scenario.workload)) {
        const Clock::time_point t = Clock::now();
        osworkloads::BuildSourceTree(&fs, g->root, g->tree);
        tree_s += SecondsSince(t);
      } else if (const auto* t = std::get_if<osrunner::TrafficSpec>(
                     &part.scenario.workload)) {
        const Clock::time_point t0 = Clock::now();
        osworkloads::CreateTrafficFiles(&fs, t->config);
        files_s += SecondsSince(t0);
      }
    }
    build_tree.push_back(tree_s);
    traffic_files.push_back(files_s);
  }

  // Per-layer metrics: host times are medians over the traced passes (or
  // rounds), printed with their samples; counts come from the first traced
  // pass, checked above to repeat exactly.
  std::map<std::string, double> m;
  std::map<std::string, std::vector<double>> samples;
  auto timed = [&](const std::string& name, std::vector<double> v) {
    m[name] = Median(v);
    samples[name] = std::move(v);
  };
  auto per_pass = [&](auto&& f) {
    std::vector<double> v;
    for (const std::vector<PartTrace>& pass : traced) {
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        sum += f(parts[i], pass[i]);
      }
      v.push_back(sum);
    }
    return v;
  };
  auto count = [&](const std::string& name,
                   const std::string& only = std::string()) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!only.empty() && parts[i].scenario.name != only) {
        continue;
      }
      const auto it = traced[0][i].counts.find(name);
      if (it != traced[0][i].counts.end()) {
        sum += static_cast<double>(it->second);
      }
    }
    return sum;
  };
  const double ops = count("ops");
  const std::vector<double> trial_s =
      per_pass([](const Part&, const PartTrace& pt) { return pt.trial_s; });
  timed("runner.trial_s", trial_s);
  for (const char* half : {"cluster_write_shared", "cluster_read_mostly"}) {
    const std::string h = half;
    timed("runner.trial_s." + h,
          per_pass([&h](const Part& p, const PartTrace& pt) {
            return p.scenario.name == h ? pt.trial_s : 0.0;
          }));
  }
  timed("runner.merge_s", per_pass([](const Part&, const PartTrace& pt) {
          return pt.run_s - pt.trial_s;
        }));
  m["runner.allocs_per_op"] = ops > 0 ? count("run_allocs") / ops : 0.0;
  timed("sim.race_s", race_delta);
  m["sim.race_accesses_checked"] = count("race_accesses_checked");
  m["sim.race_cells_tracked"] = count("race_cells_tracked");
  std::vector<double> ns_per_op;
  for (const double s : trial_s) {
    ns_per_op.push_back(ops > 0 ? 1e9 * s / ops : 0.0);
  }
  timed("sim.host_ns_per_op", ns_per_op);
  m["sim.cycles"] = count("sim_cycles");
  m["sim.context_switches"] = count("context_switches");
  m["sim.timer_interrupts"] = count("timer_interrupts");
  m["sim.forced_preemptions"] = count("forced_preemptions");
  m["sim.spawned_threads"] = count("spawned_threads");
  m["sim.reaped_threads"] = count("reaped_threads");
  m["sim.run_queue_peak"] = count("run_queue_peak");
  m["sim.heap_bytes"] = count("sim_heap_bytes");
  timed("profilers.spine_s", spine_delta);
  m["profilers.ops_recorded"] = ops;
  m["profilers.shard_flushes"] = count("shard_flushes");
  timed("workloads.build_tree_s", build_tree);
  timed("workloads.traffic_files_s", traffic_files);
  m["workloads.requests"] = count("requests");
  m["workloads.sessions"] = count("sessions");
  m["workloads.peak_live_sessions"] = count("peak_live_sessions");
  m["fs.bytes_read"] = count("bytes_read");
  m["fs.bytes_written"] = count("bytes_written");
  m["fs.pages_flushed"] = count("pages_flushed");
  m["fs.cache_invalidations"] = count("cache_invalidations");
  const std::vector<std::pair<std::string, std::string>> net = {
      {"net.messages", "net_messages"},
      {"net.bytes", "net_bytes"},
      {"net.dlm_acquires", "dlm_acquires"},
      {"net.dlm_remote_requests", "dlm_remote_requests"},
      {"net.dlm_basts", "dlm_basts"},
      {"net.dlm_downgrades", "dlm_downgrades"}};
  for (const std::string suffix :
       {"", ".cluster_write_shared", ".cluster_read_mostly"}) {
    const std::string only = suffix.empty() ? suffix : suffix.substr(1);
    for (const auto& [metric, counter] : net) {
      m[metric + suffix] = count(counter, only);
    }
    const double acquires = count("dlm_acquires", only);
    m["net.dlm_cache_hit_ratio" + suffix] =
        acquires > 0 ? count("dlm_cache_hits", only) / acquires : 0.0;
  }
  for (const std::string& scenario : a.scenarios) {
    timed("tools.gate_s." + scenario,
          per_pass([&scenario](const Part& p, const PartTrace& pt) {
            return p.scenario.name == scenario ? pt.gate_s : 0.0;
          }));
  }
  if (gate) {
    timed("tools.gate_self_s", per_pass([](const Part&, const PartTrace& pt) {
            return pt.gate_s - pt.run_s - pt.parse_s - pt.raters_s;
          }));
  } else {
    m["tools.gate_self_s"] = 0.0;
  }
  timed("core.golden_parse_s",
        per_pass([](const Part&, const PartTrace& pt) { return pt.parse_s; }));
  timed("core.raters_s",
        per_pass([](const Part&, const PartTrace& pt) { return pt.raters_s; }));
  std::vector<double> overhead;
  for (std::size_t i = 0; i < traced_wall.size(); ++i) {
    overhead.push_back(traced_wall[i] - untraced_wall[i]);
  }
  timed("bench.trace_overhead_s", overhead);
  m["bench.count_drift"] = static_cast<double>(drift.size());

  if (!a.spans_path.empty()) {
    tracer.Write(a.spans_path);
  }
  osjson::Value metrics = osjson::Value::Object();
  for (const auto& [name, value] : m) {
    metrics.Set(name, osjson::Value::Double(value));
  }
  osjson::Value metric_samples = osjson::Value::Object();
  for (const auto& [name, values] : samples) {
    metric_samples.Set(name, Numbers(values));
  }
  osjson::Value doc = osjson::Value::Object();
  doc.Set("untraced_wall_s", Numbers(untraced_wall));
  doc.Set("traced_wall_s", Numbers(traced_wall));
  doc.Set("checks", osjson::Value::Int(checks));
  doc.Set("failures", Strings(failures));
  doc.Set("drift", Strings(drift));
  doc.Set("metrics", std::move(metrics));
  doc.Set("samples", std::move(metric_samples));
  Emit(doc);
  return 0;
}

#endif  // PERFBENCH_TRACE

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = ParseArgs(argc, argv);
    if (a.mode == "pass") {
      return PassMode(a);
    }
    if (a.mode == "probe") {
      return ProbeMode(a);
    }
    if (a.mode == "digest-check") {
      return DigestCheckMode(a);
    }
    if (a.mode == "hostloop") {
      osjson::Value doc = osjson::Value::Object();
      doc.Set("host_loop_ns", osjson::Value::Double(HostLoopNs()));
      Emit(doc);
      return 0;
    }
#if PERFBENCH_TRACE
    if (a.mode == "tables") {
      return TablesMode();
    }
    if (a.mode == "layers") {
      return LayersMode(a);
    }
#endif
    std::fprintf(stderr, "perfbench: unknown mode %s\n", a.mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
