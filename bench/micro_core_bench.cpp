// Real-hardware micro-benchmarks of the aggregate-stats library
// (google-benchmark).  The honest counterpart to the paper's "about 200
// CPU cycles per profiled OS entry point": what does a probe cost today?
// Also covers the DESIGN.md ablations: bucket resolution r=1 vs r=2,
// histogram locking policies, EMD vs bin-by-bin raters, and the
// string-keyed vs pre-resolved-handle record paths (ISSUE 3).
//
// Besides the google-benchmark suite, main() times the record and Wrap
// hot paths directly and emits BENCH_micro_core.json (osprof-bench-v1)
// with ns_per_record_{string,handle} and ns_per_wrap_{string,handle} so
// CI can assert the handle path's speedup (record_handle_speedup_ge_5x)
// without scraping stdout.  The lock-order tracker's overhead bound
// (wrap_tracking_overhead_le_5pct) is sim_throughput_bench's check.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#include "bench/bench_util.h"
#include "src/core/compare.h"
#include "src/core/histogram.h"
#include "src/core/op_table.h"
#include "src/core/peaks.h"
#include "src/core/probe.h"
#include "src/core/profile.h"
#include "src/profilers/sim_profiler.h"
#include "src/sim/kernel.h"
#include "src/sim/task.h"

namespace {

using osprof::Cycles;
using osprof::Histogram;

// A realistic per-layer operation population: the ten VFS ops under two
// layer prefixes plus the four driver keys, so the string-keyed lookup
// walks a name index of production depth rather than a toy one.
constexpr const char* kLayerOps[] = {
    "fs_open",        "fs_close",       "fs_read",    "fs_write",
    "fs_llseek",      "fs_readdir",     "fs_fsync",   "fs_create",
    "fs_unlink",      "fs_stat",        "user_open",  "user_close",
    "user_read",      "user_write",     "user_llseek", "user_readdir",
    "user_fsync",     "user_create",    "user_unlink", "user_stat",
    "disk_read",      "disk_write",     "disk_read_queue",
    "disk_write_queue",
};

osprof::ProfileSet PopulatedLayerSet() {
  osprof::ProfileSet set(1);
  for (const char* op : kLayerOps) {
    (void)set.Resolve(op);
  }
  return set;
}

void BM_BucketIndexR1(benchmark::State& state) {
  Cycles latency = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(osprof::BucketIndex(latency));
    latency = latency * 3 + 1;
  }
}
BENCHMARK(BM_BucketIndexR1);

void BM_BucketIndexR2(benchmark::State& state) {
  Cycles latency = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(osprof::BucketIndex(latency, 2));
    latency = latency * 3 + 1;
  }
}
BENCHMARK(BM_BucketIndexR2);

void BM_HistogramAdd(benchmark::State& state) {
  Histogram h(static_cast<int>(state.range(0)));
  Cycles latency = 1;
  for (auto _ : state) {
    h.Add(latency);
    latency = latency * 5 / 3 + 1;
  }
  benchmark::DoNotOptimize(h.TotalOperations());
}
BENCHMARK(BM_HistogramAdd)->Arg(1)->Arg(2)->ArgName("resolution");

void BM_AtomicHistogramAdd(benchmark::State& state) {
  osprof::AtomicHistogram h(1);
  Cycles latency = 1;
  for (auto _ : state) {
    h.Add(latency);
    latency = latency * 5 / 3 + 1;
  }
}
BENCHMARK(BM_AtomicHistogramAdd)->Threads(1)->Threads(4);

void BM_ShardedHistogramAdd(benchmark::State& state) {
  static osprof::ShardedHistogram h(1);
  Histogram* local = h.Local();
  Cycles latency = 1;
  for (auto _ : state) {
    local->Add(latency);
    latency = latency * 5 / 3 + 1;
  }
}
BENCHMARK(BM_ShardedHistogramAdd)->Threads(1)->Threads(4);

void BM_LatencyProbeRoundTrip(benchmark::State& state) {
  // The full probe: two TSC reads plus a bucket sort -- the paper's
  // per-operation overhead.
  Histogram h(1);
  for (auto _ : state) {
    osprof::LatencyProbe probe(&h);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(h.TotalOperations());
}
BENCHMARK(BM_LatencyProbeRoundTrip);

Histogram MultiModal(int peaks, std::uint64_t seed) {
  Histogram h(1);
  std::uint64_t s = seed;
  for (int p = 0; p < peaks; ++p) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const int center = 5 + static_cast<int>((s >> 33) % 24);
    h.set_bucket(center, 1'000 + (s & 0xFFFF));
    h.set_bucket(center + 1, 100 + (s & 0xFF));
  }
  return h;
}

void BM_EarthMoversDistance(benchmark::State& state) {
  const Histogram a = MultiModal(3, 1);
  const Histogram b = MultiModal(3, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(osprof::EarthMoversDistance(a, b));
  }
}
BENCHMARK(BM_EarthMoversDistance);

void BM_ChiSquareDistance(benchmark::State& state) {
  const Histogram a = MultiModal(3, 1);
  const Histogram b = MultiModal(3, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(osprof::ChiSquareDistance(a, b));
  }
}
BENCHMARK(BM_ChiSquareDistance);

void BM_FindPeaks(benchmark::State& state) {
  const Histogram h = MultiModal(static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(osprof::FindPeaks(h));
  }
}
BENCHMARK(BM_FindPeaks)->Arg(1)->Arg(4)->ArgName("peaks");

// The pre-ISSUE-3 record path: build the layer-prefixed key per call
// (exactly what ProfiledVfs did with `prefix_ + "read"`), then look it
// up in the sorted name index.
void BM_ProfileSetRecordStringKey(benchmark::State& state) {
  osprof::ProfileSet set = PopulatedLayerSet();
  const std::string prefix = "fs_";
  Cycles latency = 1;
  for (auto _ : state) {
    set.Add(prefix + "read", latency);
    latency = latency * 5 / 3 + 1;
  }
  benchmark::DoNotOptimize(set.TotalOperations());
}
BENCHMARK(BM_ProfileSetRecordStringKey);

// The handle path: the key was interned at attach time, the record is an
// indexed load + bucket increment.
void BM_ProfileSetRecordHandle(benchmark::State& state) {
  osprof::ProfileSet set = PopulatedLayerSet();
  const osprof::ProbeHandle read = set.Resolve("fs_read");
  Cycles latency = 1;
  for (auto _ : state) {
    set.AddById(read.id(), latency);
    latency = latency * 5 / 3 + 1;
  }
  benchmark::DoNotOptimize(set.TotalOperations());
}
BENCHMARK(BM_ProfileSetRecordHandle);

void BM_ProfileSetSerialize(benchmark::State& state) {
  osprof::ProfileSet set(1);
  for (const char* op : {"read", "write", "llseek", "readdir", "open"}) {
    for (int i = 0; i < 1'000; ++i) {
      set.Add(op, static_cast<Cycles>(100 + i * 37));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.ToString());
  }
}
BENCHMARK(BM_ProfileSetSerialize);

void BM_ProfileSetParse(benchmark::State& state) {
  osprof::ProfileSet set(1);
  for (const char* op : {"read", "write", "llseek", "readdir", "open"}) {
    for (int i = 0; i < 1'000; ++i) {
      set.Add(op, static_cast<Cycles>(100 + i * 37));
    }
  }
  const std::string text = set.ToString();
  for (auto _ : state) {
    benchmark::DoNotOptimize(osprof::ProfileSet::ParseString(text));
  }
}
BENCHMARK(BM_ProfileSetParse);

// --- BENCH_micro_core.json hot-path measurements ---------------------------

constexpr int kRecordIters = 2'000'000;

double MeasureRecordString(osprof::ProfileSet* set) {
  const std::string prefix = "fs_";
  Cycles latency = 1;
  const osprof::WallTimer timer;
  for (int i = 0; i < kRecordIters; ++i) {
    set->Add(prefix + "read", latency);
    latency = latency * 5 / 3 + 1;
  }
  return timer.Nanos() / kRecordIters;
}

double MeasureRecordHandle(osprof::ProfileSet* set) {
  const osprof::ProbeHandle read = set->Resolve("fs_read");
  Cycles latency = 1;
  const osprof::WallTimer timer;
  for (int i = 0; i < kRecordIters; ++i) {
    set->AddById(read.id(), latency);
    latency = latency * 5 / 3 + 1;
  }
  return timer.Nanos() / kRecordIters;
}

constexpr int kWrapIters = 200'000;

osim::Task<int> NoopWork(osim::Kernel* k) {
  co_await k->Cpu(0);
  co_return 0;
}

// The string-keyed baseline: resolve-per-call, exactly what the removed
// deprecated shims did internally (build the key, walk the name map).
osim::Task<void> WrapStringLoop(osim::Kernel* k,
                                osprofilers::SimProfiler* prof) {
  const std::string prefix = "fs_";
  for (int i = 0; i < kWrapIters; ++i) {
    // osprof-lint: allow(probe-discipline)
    (void)co_await prof->Wrap(prof->Resolve(prefix + "read"), NoopWork(k));
  }
}

osim::Task<void> WrapHandleLoop(osim::Kernel* k,
                                osprofilers::SimProfiler* prof,
                                osprof::ProbeHandle op) {
  for (int i = 0; i < kWrapIters; ++i) {
    (void)co_await prof->Wrap(op, NoopWork(k));
  }
}

// Times one simulated thread driving kWrapIters Wrap'd no-op operations;
// the sim-kernel scheduling cost is identical for both variants, so the
// delta isolates the per-Wrap key handling.
double MeasureWrap(bool use_handle) {
  osim::KernelConfig cfg;
  cfg.num_cpus = 1;
  cfg.context_switch_cost = 0;
  cfg.timer_tick_period = 0;
  osim::Kernel k(cfg);
  osprofilers::SimProfiler prof(&k);
  const osprof::ProbeHandle op = prof.Resolve("fs_read");
  k.Spawn("bench", use_handle ? WrapHandleLoop(&k, &prof, op)
                              : WrapStringLoop(&k, &prof));
  const osprof::WallTimer timer;
  k.RunUntilThreadsFinish();
  return timer.Nanos() / kWrapIters;
}

// Wall-clock timing jitters badly in CI; each checked metric is the
// minimum over several runs, which estimates the uncontended cost and
// keeps the speedup check honest.
template <typename F>
double BestOf(int n, F measure) {
  double best = measure();
  for (int i = 1; i < n; ++i) {
    best = std::min(best, measure());
  }
  return best;
}

int EmitJsonReport() {
  osbench::JsonReport report("micro_core");

  osprof::ProfileSet by_string = PopulatedLayerSet();
  osprof::ProfileSet by_handle = PopulatedLayerSet();
  // Warm both paths once, then measure.
  (void)MeasureRecordString(&by_string);
  (void)MeasureRecordHandle(&by_handle);
  const double ns_record_string =
      BestOf(3, [&] { return MeasureRecordString(&by_string); });
  const double ns_record_handle =
      BestOf(3, [&] { return MeasureRecordHandle(&by_handle); });
  const double record_speedup =
      ns_record_handle > 0.0 ? ns_record_string / ns_record_handle : 0.0;
  report.AddOps(8 * static_cast<std::uint64_t>(kRecordIters));

  const double ns_wrap_string =
      BestOf(3, [] { return MeasureWrap(/*use_handle=*/false); });
  const double ns_wrap_handle =
      BestOf(3, [] { return MeasureWrap(/*use_handle=*/true); });
  report.AddOps(6 * static_cast<std::uint64_t>(kWrapIters));

  report.Metric("ns_per_record_string", ns_record_string);
  report.Metric("ns_per_record_handle", ns_record_handle);
  report.Metric("record_handle_speedup", record_speedup);
  report.Metric("ns_per_wrap_string", ns_wrap_string);
  report.Metric("ns_per_wrap_handle", ns_wrap_handle);
  report.Metric("wrap_handle_speedup",
                ns_wrap_handle > 0.0 ? ns_wrap_string / ns_wrap_handle
                                     : 0.0);

  std::printf("record: %.1f ns string-keyed, %.1f ns handle (%.1fx)\n",
              ns_record_string, ns_record_handle, record_speedup);
  std::printf("wrap:   %.1f ns string-keyed, %.1f ns handle\n",
              ns_wrap_string, ns_wrap_handle);
  const bool record_ok =
      report.Check("record_handle_speedup_ge_5x", record_speedup >= 5.0);
  const int rc = report.Finish();
  if (rc != 0) {
    return rc;
  }
  // This bench carries a regression check; a failed check must fail the
  // process (CI's bench step relies on the exit code).
  return record_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return EmitJsonReport();
}
