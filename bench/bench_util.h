// Shared helpers for the figure/table reproduction benches.

#ifndef OSPROF_BENCH_BENCH_UTIL_H_
#define OSPROF_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "src/core/clock.h"
#include "src/core/histogram.h"
#include "src/core/jsonw.h"
#include "src/core/peaks.h"
#include "src/core/preemption.h"
#include "src/core/prior.h"
#include "src/core/report.h"
#include "src/fs/ext2fs.h"
#include "src/net/cifs.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "src/sim/disk.h"
#include "src/sim/kernel.h"
#include "src/sim/task.h"

namespace osbench {

// Benches ported onto the multi-trial runner accept `--trials=N` and
// `--jobs=J` (defaults 1/1 keep the single-run figure output).  A value
// that is not an integer, or a non-positive trial count, ends the bench
// with exit code 1 before any BENCH JSON is written.
inline osrunner::RunOptions ParseRunCli(int argc, char** argv) {
  osrunner::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool trials = arg.rfind("--trials=", 0) == 0;
    if (!trials && arg.rfind("--jobs=", 0) != 0) {
      continue;
    }
    const std::string value = arg.substr(arg.find('=') + 1);
    const std::optional<int> n = osrunner::ParseInt(value);
    if (!n || (trials && *n <= 0)) {
      std::fprintf(stderr, "bad %s value '%s'\n",
                   trials ? "--trials" : "--jobs", value.c_str());
      std::exit(1);
    }
    (trials ? options.trials : options.jobs) = *n;
  }
  return options;
}

inline void ShowRunSummary(const osrunner::RunResult& result) {
  std::printf("%d trial(s) on %d job(s), %.3f s wall\n",
              result.options.trials, result.options.jobs,
              result.wall_seconds);
}

// Cross-trial dispersion for one layer, only worth printing for trials > 1.
inline void ShowDispersion(const osrunner::RunResult& result,
                           const std::string& layer) {
  if (result.options.trials < 2) {
    return;
  }
  const auto it = result.layers.find(layer);
  if (it == result.layers.end()) {
    return;
  }
  std::printf("\n--- Cross-trial dispersion [%s] ---\n%s", layer.c_str(),
              osrunner::RenderDispersion(it->second, result.options.trials)
                  .c_str());
}

// The requests a zero-byte-read profile shows as preempted (§3.3): those
// from the bucket below quantum Q's up, since a preempted request waits
// out about Q.
inline std::uint64_t PreemptedTail(const osprof::Histogram& h,
                                   osprof::Cycles quantum) {
  std::uint64_t n = 0;
  for (int b = osprof::PreemptionBucket(static_cast<double>(quantum)) - 1;
       b < h.num_buckets(); ++b) {
    n += h.bucket(b);
  }
  return n;
}

// Lists the directory at `path` once, batch by batch.
inline osim::Task<void> EnumerateOnce(osfs::Vfs* vfs, std::string path) {
  const int fd = co_await vfs->Open(path, false);
  while (true) {
    const osfs::DirentBatch batch = co_await vfs->Readdir(fd);
    if (batch.names.empty()) {
      break;
    }
  }
  co_await vfs->Close(fd);
}

// Figure 11's machine (§6.4): one enumeration of a 100-file directory
// over CIFS, seed 11, with every packet traced.
struct PacketTimeline {
  std::string packets;         // The rendered PacketTrace.
  osprof::Cycles elapsed = 0;  // When the enumeration finished.
};

inline PacketTimeline FindFirstTimeline(osnet::ClientOs client_os) {
  osim::KernelConfig kcfg;
  kcfg.num_cpus = 4;
  kcfg.seed = 11;
  osim::Kernel kernel(kcfg);
  osim::SimDisk disk(&kernel);
  osfs::Ext2SimFs server_fs(&kernel, &disk);
  server_fs.AddDir("/export");
  for (int i = 0; i < 100; ++i) {
    server_fs.AddFile("/export/f" + std::to_string(i), 2'000);
  }
  osnet::CifsConfig ccfg;
  ccfg.client_os = client_os;
  osnet::PacketTrace trace;
  osnet::CifsMount mount(&kernel, &server_fs, ccfg, &trace);
  kernel.Spawn("client", EnumerateOnce(&mount, "/export"));
  kernel.RunUntilThreadsFinish();
  return {trace.Render(osprof::kPaperCpuHz), kernel.now()};
}

// Peak resident set size of this process, in bytes (0 where the platform
// offers no getrusage).  Linux reports ru_maxrss in KiB, macOS in bytes.
inline std::uint64_t PeakRssBytes() {
#if defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#elif defined(__unix__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
#else
  return 0;
#endif
}

inline void Header(const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

inline void Section(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

// Prints a profile the way the paper's figures show them, plus detected
// peaks annotated with prior-knowledge hypotheses.
inline void ShowProfile(const osprof::Profile& profile,
                        const osprof::RenderOptions& options = {}) {
  std::printf("%s\n", osprof::RenderAscii(profile, options).c_str());
  const auto peaks = osprof::FindPeaks(profile.histogram());
  std::printf("  %s\n", osprof::DescribePeaks(peaks).c_str());
  static const osprof::PriorKnowledge kPrior =
      osprof::PriorKnowledge::PaperTestbed();
  for (const auto& annotated : kPrior.Annotate(peaks)) {
    if (!annotated.hypotheses.empty()) {
      std::string names;
      for (const std::string& h : annotated.hypotheses) {
        if (!names.empty()) {
          names += ", ";
        }
        names += h;
      }
      std::printf("  peak @%d: characteristic time match: %s\n",
                  annotated.peak.mode_bucket, names.c_str());
    }
  }
  std::printf("  %s\n", osprof::SummarizeProfile(profile).c_str());
}

// --- Machine-readable bench reports ----------------------------------------

// The path of the bench output file `file_name`: in $OSPROF_BENCH_JSON_DIR
// if set, else in the working directory.
inline std::string BenchOutputPath(const std::string& file_name) {
  const char* dir = std::getenv("OSPROF_BENCH_JSON_DIR");
  if (dir == nullptr || dir[0] == '\0') {
    return file_name;
  }
  std::string path(dir);
  if (path.back() != '/') {
    path.push_back('/');
  }
  return path + file_name;
}

// Every fig*/tab_* binary emits a BENCH_<name>.json next to its human
// output so CI (and the regression gate job) can consume the run without
// scraping stdout.  The document records wall-clock time, simulated
// cycles, operation throughput, every paper-vs-measured check as a
// pass/fail entry, free-form numeric metrics, and the paths of any
// serialized merged ProfileSets the bench wrote.
//
// Output directory: BenchOutputPath's.  Construction starts the wall
// clock; Finish() writes the file and returns the bench's exit code (0
// even when checks differ -- the figures are reproductions, and the
// *gate* is what enforces regressions; CI reads the per-check booleans
// from the JSON instead).
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  // Not copyable: one report per bench process.
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  // Accumulates the run's scale numbers.  Callable repeatedly (benches
  // that execute several configurations sum them).
  void AddSimCycles(osprof::Cycles cycles) { sim_cycles_ += cycles; }
  void AddOps(std::uint64_t ops) { total_ops_ += ops; }

  // Folds in a multi-trial runner result: simulated cycles over all
  // trials plus the merged operation count of every layer.
  void RecordRun(const osrunner::RunResult& result) {
    for (const osrunner::TrialResult& t : result.trials) {
      AddSimCycles(t.sim_cycles);
    }
    for (const auto& [layer, lr] : result.layers) {
      AddOps(lr.merged.TotalOperations());
    }
  }

  // Records one pass/fail check and returns `pass` so call sites can keep
  // printing their human verdict from the same expression.
  bool Check(const std::string& check_name, bool pass) {
    checks_.emplace_back(check_name, pass);
    return pass;
  }

  // Records a free-form numeric result (a table cell worth keeping).
  void Metric(const std::string& metric_name, double value) {
    metrics_.emplace_back(metric_name, value);
  }

  // Serializes a merged profile set to BENCH_<name>.<tag>.prof in the
  // JSON output directory and records the path; returns the path ("" on
  // I/O failure, which is also recorded in the JSON).
  std::string WriteProfileSet(const osprof::ProfileSet& set,
                              const std::string& tag) {
    const std::string path =
        BenchOutputPath("BENCH_" + name_ + "." + tag + ".prof");
    std::ofstream out(path);
    if (out) {
      set.Serialize(out);
    }
    profile_sets_.emplace_back(tag, out ? path : std::string());
    return out ? path : std::string();
  }

  // Writes BENCH_<name>.json.  Returns the process exit code: 0 normally,
  // 1 only if the report itself cannot be written.
  int Finish() {
    const double wall_seconds = timer_.Seconds();
    osjson::Value doc = osjson::Value::Object();
    doc.Set("schema", osjson::Value::Str("osprof-bench-v1"));
    doc.Set("bench", osjson::Value::Str(name_));
    doc.Set("wall_seconds", osjson::Value::Double(wall_seconds));
    doc.Set("sim_cycles", osjson::Value::Uint(sim_cycles_));
    doc.Set("total_ops", osjson::Value::Uint(total_ops_));
    doc.Set("ops_per_sec",
            osjson::Value::Double(wall_seconds > 0.0
                                      ? static_cast<double>(total_ops_) /
                                            wall_seconds
                                      : 0.0));
    osjson::Value checks = osjson::Value::Array();
    int failed = 0;
    for (const auto& [check_name, pass] : checks_) {
      osjson::Value entry = osjson::Value::Object();
      entry.Set("name", osjson::Value::Str(check_name));
      entry.Set("pass", osjson::Value::Bool(pass));
      checks.Append(std::move(entry));
      failed += pass ? 0 : 1;
    }
    doc.Set("checks", std::move(checks));
    doc.Set("checks_failed", osjson::Value::Int(failed));
    osjson::Value metrics = osjson::Value::Object();
    for (const auto& [metric_name, value] : metrics_) {
      metrics.Set(metric_name, osjson::Value::Double(value));
    }
    doc.Set("metrics", std::move(metrics));
    osjson::Value sets = osjson::Value::Object();
    for (const auto& [tag, path] : profile_sets_) {
      sets.Set(tag, path.empty() ? osjson::Value()
                                 : osjson::Value::Str(path));
    }
    doc.Set("profile_sets", std::move(sets));

    const std::string path = BenchOutputPath("BENCH_" + name_ + ".json");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    out << doc.Dump();
    std::printf("\n[bench json: %s]\n", path.c_str());
    return 0;
  }

 private:
  std::string name_;
  // Construction starts the wall clock.
  osprof::WallTimer timer_;
  osprof::Cycles sim_cycles_ = 0;
  std::uint64_t total_ops_ = 0;
  std::vector<std::pair<std::string, bool>> checks_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> profile_sets_;
};

}  // namespace osbench

#endif  // OSPROF_BENCH_BENCH_UTIL_H_
