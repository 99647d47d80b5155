// Figure 10: FindFirst, FindNext and read profiles on a Windows client
// over CIFS (§6.4), with the Linux-over-SMB client as the layered-
// profiling comparison.
//
// The Windows client's Find operations show peaks in buckets 26-30 (the
// 200ms delayed-ACK stalls); the Linux client has none.  Reads split at
// the local/remote boundary (~168us -> bucket 18).  The automated
// analyzer picks the interesting operations out of the full set, as the
// paper reports (6 of 51 profiles selected by total latency).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/analysis.h"
#include "src/net/cifs.h"
#include "src/runner/runner.h"

int main() {
  osbench::Header("Figure 10: CIFS client profiles under grep (§6.4)");
  osbench::JsonReport report("fig10_cifs_profiles");

  const osrunner::TrialResult windows = osrunner::RunTrial(
      osbench::CifsGrep(77, osnet::ClientOs::kWindows, /*delayed_ack=*/true),
      0);
  const osrunner::TrialResult linux = osrunner::RunTrial(
      osbench::CifsGrep(77, osnet::ClientOs::kLinux, /*delayed_ack=*/true), 0);
  const osprof::ProfileSet& windows_profiles = windows.layers.at("cifs");
  const osprof::ProfileSet& linux_profiles = linux.layers.at("cifs");
  const std::uint64_t windows_stalls = windows.counters.at("delayed_acks");
  const std::uint64_t linux_stalls = linux.counters.at("delayed_acks");
  report.AddOps(windows_profiles.TotalOperations() +
                linux_profiles.TotalOperations());
  report.WriteProfileSet(windows_profiles, "windows");
  report.WriteProfileSet(linux_profiles, "linux");

  osbench::Section("Windows client: FIND_FIRST / FIND_NEXT / READ");
  for (const char* op : {"findfirst", "findnext", "read"}) {
    const osprof::Profile* p = windows_profiles.Find(op);
    if (p != nullptr) {
      osbench::ShowProfile(*p);
    }
  }

  osbench::Section("Linux client (layered comparison): FIND ops");
  for (const char* op : {"findfirst", "findnext"}) {
    const osprof::Profile* p = linux_profiles.Find(op);
    if (p != nullptr) {
      osbench::ShowProfile(*p);
    }
  }

  osbench::Section("Automated analysis: Windows vs Linux client profile sets");
  const osprof::AnalysisReport report_analysis =
      osprof::CompareProfileSets(windows_profiles, linux_profiles);
  std::printf("%s", report_analysis.Summary().c_str());

  osbench::Section("Paper-vs-measured checks");
  const osprof::Histogram& ff = windows_profiles.Find("findfirst")->histogram();
  std::uint64_t stall_peak = 0;
  for (int b = 26; b <= 30; ++b) {
    stall_peak += ff.bucket(b);
  }
  std::printf("  Windows FindFirst ops in buckets 26-30: %llu of %llu "
              "(paper: the dominant Find peaks live there)\n",
              static_cast<unsigned long long>(stall_peak),
              static_cast<unsigned long long>(ff.TotalOperations()));
  const osprof::Profile* lff = linux_profiles.Find("findfirst");
  std::printf("  Linux FindFirst max bucket: %d (paper: no 26-30 peaks)\n",
              lff->histogram().LastNonEmpty());

  // The local/remote boundary for reads.
  const osprof::Histogram& rd = windows_profiles.Find("read")->histogram();
  std::uint64_t local = 0;
  std::uint64_t remote = 0;
  for (int b = 0; b < rd.num_buckets(); ++b) {
    (b < 18 ? local : remote) += rd.bucket(b);
  }
  std::printf("  reads local (<168us, bucket <18): %llu; via server: %llu "
              "(paper: boundary at bucket 18)\n",
              static_cast<unsigned long long>(local),
              static_cast<unsigned long long>(remote));
  std::printf("  Windows 200ms stalls: %llu; Linux: %llu (paper: only the "
              "Windows client stalls)\n",
              static_cast<unsigned long long>(windows_stalls),
              static_cast<unsigned long long>(linux_stalls));
  const double windows_elapsed_s =
      static_cast<double>(windows.sim_cycles) / osprof::kPaperCpuHz;
  const double linux_elapsed_s =
      static_cast<double>(linux.sim_cycles) / osprof::kPaperCpuHz;
  std::printf("  elapsed: Windows %.2fs vs Linux %.2fs\n", windows_elapsed_s,
              linux_elapsed_s);
  report.Check("windows_find_stall_peak", stall_peak > 0);
  report.Check("linux_no_stall_peak", lff->histogram().LastNonEmpty() < 26);
  report.Check("only_windows_client_stalls",
               windows_stalls > 0 && linux_stalls == 0);
  report.Check("race_free",
               windows.race_reports.empty() && linux.race_reports.empty());
  report.Metric("windows_elapsed_s", windows_elapsed_s);
  report.Metric("linux_elapsed_s", linux_elapsed_s);
  report.Metric("windows_delayed_acks", static_cast<double>(windows_stalls));
  return report.Finish();
}
