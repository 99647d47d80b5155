// Figure 6: the llseek operation under random reads (§6.1).
//
// Two processes randomly read the same file with O_DIRECT.  The unpatched
// generic_file_llseek takes the inode's i_sem, which the other process's
// direct read holds across its disk I/O -- so llseek grows a second peak
// aligned with the READ profile.  One process shows no such peak; the
// patched llseek (f_pos-only update) eliminates the semaphore entirely and
// drops the mean from ~400 to ~120 cycles (a 70% reduction).  The
// automated analyzer is also run, as in the paper, to show it flags
// llseek on its own.
//
// All three runs are the registered fig06 scenario -- the Figure 6 the
// gate guards -- as registered, with one process, and patched.

#include <cstdio>
#include <variant>

#include "bench/bench_util.h"
#include "src/core/analysis.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"

namespace {

osprof::ProfileSet RunFig06(int processes, bool patched) {
  osrunner::Scenario s = *osrunner::BuiltinScenarios().Find("fig06");
  std::get<osrunner::RandomReadSpec>(s.workload).processes = processes;
  s.fs.llseek_takes_i_sem = !patched;
  return osrunner::RunTrial(s, 0).layers.at("fs");
}

double ContentionRate(const osprof::Histogram& llseek) {
  // Contended seeks wait for a disk I/O: bucket 17 and up.
  std::uint64_t slow = 0;
  for (int b = 17; b < llseek.num_buckets(); ++b) {
    slow += llseek.bucket(b);
  }
  return static_cast<double>(slow) /
         static_cast<double>(llseek.TotalOperations());
}

}  // namespace

int main() {
  osbench::Header("Figure 6: llseek under random O_DIRECT reads (§6.1)");
  osbench::JsonReport report("fig06_llseek");

  const osprof::ProfileSet two = RunFig06(2, /*patched=*/false);
  const osprof::ProfileSet one = RunFig06(1, /*patched=*/false);
  const osprof::ProfileSet patched = RunFig06(2, /*patched=*/true);
  report.AddOps(two.TotalOperations());
  report.AddOps(one.TotalOperations());
  report.AddOps(patched.TotalOperations());
  report.WriteProfileSet(two, "fs");

  osbench::Section("READ (2 processes, unpatched)");
  osbench::ShowProfile(*two.Find("read"));
  osbench::Section("LLSEEK-UNPATCHED (2 processes vs 1 process)");
  osbench::ShowProfile(*two.Find("llseek"));
  osbench::ShowProfile(*one.Find("llseek"));
  osbench::Section("LLSEEK-PATCHED (2 processes)");
  osbench::ShowProfile(*patched.Find("llseek"));

  osbench::Section("Automated analysis: 1 process vs 2 processes");
  const osprof::AnalysisReport report_analysis =
      osprof::CompareProfileSets(one, two);
  std::printf("%s", report_analysis.Summary().c_str());

  osbench::Section("Paper-vs-measured checks");
  const double contention = ContentionRate(two.Find("llseek")->histogram());
  const double contention1 = ContentionRate(one.Find("llseek")->histogram());
  const double unpatched_fast_mean = [&] {
    // Mean of the CPU-only mode (exclude contended waits).
    const osprof::Histogram& h = one.Find("llseek")->histogram();
    return h.MeanLatency();
  }();
  const double patched_mean = patched.Find("llseek")->histogram().MeanLatency();
  std::printf("  llseek contention rate, 2 processes: %.1f%%  (paper: ~25%%)\n",
              contention * 100.0);
  std::printf("  llseek contention rate, 1 process:   %.1f%%  (paper: 0%%)\n",
              contention1 * 100.0);
  std::printf("  unpatched uncontended mean: %.0f cycles (paper: ~400)\n",
              unpatched_fast_mean);
  std::printf("  patched mean:               %.0f cycles (paper: ~120)\n",
              patched_mean);
  std::printf("  reduction: %.0f%%  (paper: ~70%%)\n",
              100.0 * (1.0 - patched_mean / unpatched_fast_mean));
  report.Check("contention_with_two_processes", contention > 0.05);
  report.Check("no_contention_single_process", contention1 < 0.01);
  report.Check("patched_llseek_faster", patched_mean < unpatched_fast_mean);
  report.Check("analyzer_flags_llseek", [&] {
    for (const osprof::PairReport* p : report_analysis.Interesting()) {
      if (p->op_name == "llseek") {
        return true;
      }
    }
    return false;
  }());
  report.Metric("contention_rate_2proc", contention);
  report.Metric("patched_mean_cycles", patched_mean);
  report.Metric("unpatched_mean_cycles", unpatched_fast_mean);
  return report.Finish();
}
