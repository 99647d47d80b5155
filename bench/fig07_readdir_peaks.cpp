// Figure 7: Ext2 readdir and readpage profiles for one run of grep -r
// over a kernel-source-like tree (§6.2).
//
// Four readdir peaks: (1) past-EOF fast returns (buckets 6-7), (2)
// page-cache hits (9-14), (3) disk-cache (readahead) hits (16-17), and
// (4) mechanical disk accesses (18-23).  The paper's cross-check is also
// reproduced: the number of readpage operations equals the number of
// readdir+read operations in peaks 3+4 (the ones that initiated I/O).
//
// Runs on the multi-trial runner (--trials=N --jobs=J); the cross-check
// is per-trial bookkeeping that survives merging, so it must hold on the
// merged profile too.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/analysis.h"
#include "src/fs/ext2fs.h"
#include "src/profilers/sim_profiler.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "src/sim/disk.h"
#include "src/sim/kernel.h"
#include "src/workloads/workloads.h"

int main(int argc, char** argv) {
  osbench::Header("Figure 7: readdir/readpage under grep -r (§6.2)");
  osbench::JsonReport report("fig07_readdir_peaks");
  const osrunner::RunOptions options = osbench::ParseRunCli(argc, argv);

  const osrunner::Scenario* scenario =
      osrunner::BuiltinScenarios().Find("fig07");
  const osrunner::RunResult result = osrunner::RunScenario(*scenario, options);
  const osprof::ProfileSet& profiles = result.layers.at("fs").merged;
  report.RecordRun(result);
  report.WriteProfileSet(profiles, "fs");
  const std::uint64_t directories = result.TotalCounter("directories_visited");
  std::printf("grep: read %llu files (%.1f MB) over %llu directories\n",
              static_cast<unsigned long long>(result.TotalCounter("files_read")),
              static_cast<double>(result.TotalCounter("bytes_read")) / 1e6,
              static_cast<unsigned long long>(directories));
  osbench::ShowRunSummary(result);

  osbench::Section("READDIR");
  osbench::ShowProfile(*profiles.Find("readdir"));
  osbench::Section("READPAGE");
  osbench::ShowProfile(*profiles.Find("readpage"));
  osbench::ShowDispersion(result, "fs");

  // Second run with function-granularity profiling (§3.1's gcc -p mode):
  // the readdir -> readpage call edge, captured directly by SimProfiler's
  // call edges.  Kept as a bespoke single run; the call-graph report has
  // no merge story yet.
  {
    const auto* grep = std::get_if<osrunner::GrepSpec>(&scenario->workload);
    osim::KernelConfig kcfg2 = scenario->kernel;
    osim::Kernel kernel2(kcfg2);
    osim::SimDisk disk2(&kernel2);
    osfs::Ext2SimFs fs2(&kernel2, &disk2);
    osworkloads::BuildSourceTree(&fs2, grep->root, grep->tree);
    osprofilers::SimProfiler callgraph(&kernel2);
    fs2.SetProfiler(&callgraph);
    osworkloads::GrepStats stats2;
    kernel2.Spawn("grep",
                  osworkloads::GrepWorkload(&kernel2, &fs2, grep->root,
                                            grep->per_byte_cpu, &stats2));
    kernel2.RunUntilThreadsFinish();
    osbench::Section("Function-granularity layered profile (§3.1)");
    std::printf("%s", callgraph.CallGraphReport(osprof::kPaperCpuHz).c_str());
    // Every readpage runs under read or readdir, so the two edges account
    // for its whole flat count.
    const osprof::Profile* from_read = callgraph.edges().Find("read->readpage");
    const osprof::Profile* from_readdir =
        callgraph.edges().Find("readdir->readpage");
    const osprof::Profile* readpage = callgraph.profiles().Find("readpage");
    report.Check("readpage_edges_sum_to_flat_count",
                 from_read != nullptr && from_readdir != nullptr &&
                     readpage != nullptr &&
                     from_read->total_operations() +
                             from_readdir->total_operations() ==
                         readpage->total_operations());
  }

  osbench::Section("Profile preprocessing: ops by total latency (§3.1)");
  for (const osprof::RankedOp& op : osprof::RankByLatency(profiles)) {
    std::printf("  %-10s %8llu ops  %6.1f%% of latency (cum %5.1f%%)\n",
                op.op_name.c_str(),
                static_cast<unsigned long long>(op.total_ops),
                op.latency_fraction * 100.0, op.cumulative_fraction * 100.0);
  }

  osbench::Section("Paper-vs-measured checks");
  const osprof::Histogram& rd = profiles.Find("readdir")->histogram();
  const osprof::Histogram& rp = profiles.Find("read")->histogram();
  std::uint64_t readdir_eof = 0;
  std::uint64_t cached = 0;
  std::uint64_t io_zone = 0;
  for (int b = 5; b <= 8; ++b) {
    readdir_eof += rd.bucket(b);
  }
  for (int b = 9; b <= 14; ++b) {
    cached += rd.bucket(b);
  }
  std::uint64_t read_io = 0;
  for (int b = 15; b < rd.num_buckets(); ++b) {
    io_zone += rd.bucket(b);
    read_io += rp.bucket(b);
  }
  const std::uint64_t readpages =
      profiles.Find("readpage")->total_operations();
  std::printf("  peak 1 (past-EOF,   buckets ~6-7):  %llu ops\n",
              static_cast<unsigned long long>(readdir_eof));
  std::printf("  peak 2 (page cache, buckets ~9-14): %llu ops\n",
              static_cast<unsigned long long>(cached));
  std::printf("  peaks 3+4 (disk,    buckets >=15):  %llu ops (readdir) + %llu (read)\n",
              static_cast<unsigned long long>(io_zone),
              static_cast<unsigned long long>(read_io));
  std::printf("  readpage operations:                %llu\n",
              static_cast<unsigned long long>(readpages));
  std::printf("  paper cross-check (#readpage == #I/O-latency callers): %s\n",
              report.Check("readpage_equals_io_callers",
                           readpages == io_zone + read_io)
                  ? "HOLDS"
                  : "differs");
  std::printf("  one past-EOF readdir per directory: %s (%llu dirs)\n",
              report.Check("past_eof_readdir_per_directory",
                           readdir_eof >= directories)
                  ? "HOLDS"
                  : "differs",
              static_cast<unsigned long long>(directories));
  report.Check("four_peak_zones_populated",
               readdir_eof > 0 && cached > 0 && io_zone > 0);
  report.Metric("readdir_past_eof_ops", static_cast<double>(readdir_eof));
  report.Metric("readdir_cached_ops", static_cast<double>(cached));
  report.Metric("readdir_io_ops", static_cast<double>(io_zone));
  return report.Finish();
}
