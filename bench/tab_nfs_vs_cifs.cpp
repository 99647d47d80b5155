// Network file system comparison: NFS-style RPC vs CIFS/SMB transactions
// under the same grep workload (paper Figure 2 shows both stacks; §6.4
// profiles CIFS -- this bench runs the direct comparison the
// infrastructure enables).
//
// Expected contrasts, all visible as latency-profile shape:
//  * CIFS/Windows grows Find peaks at buckets 26-30 (delayed-ACK stalls);
//    NFS never does -- each RPC reply is acked by the next call.
//  * NFS pays a lookup storm: one LOOKUP RPC per cold path component, a
//    dedicated ~RTT-latency mode with very high operation counts.
//  * CIFS amortizes metadata via Find batches carrying attributes, so
//    its stat/open profiles are mostly client-local.

#include <cstdio>
#include <variant>

#include "bench/bench_util.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"

namespace {

int MaxBucket(const osprof::ProfileSet& set, const char* op) {
  const osprof::Profile* p = set.Find(op);
  return p == nullptr ? -1 : p->histogram().LastNonEmpty();
}

}  // namespace

int main() {
  osbench::Header("NFS (RPC) vs CIFS (SMB transactions) under grep");
  osbench::JsonReport report("tab_nfs_vs_cifs");

  // The registered NFS grep, and the same machine over CIFS (the default
  // client, Windows).
  const osrunner::Scenario& nfs_grep =
      *osrunner::BuiltinScenarios().Find("nfs_grep");
  osrunner::Scenario cifs_grep = nfs_grep;
  std::get<osrunner::GrepSpec>(cifs_grep.workload).mount =
      osrunner::GrepSpec::Mount::kCifs;
  const osrunner::TrialResult cifs_run = osrunner::RunTrial(cifs_grep, 0);
  const osrunner::TrialResult nfs_run = osrunner::RunTrial(nfs_grep, 0);
  const osprof::ProfileSet& cifs = cifs_run.layers.at("cifs");
  const osprof::ProfileSet& nfs = nfs_run.layers.at("nfs");
  const auto elapsed_s = [](const osrunner::TrialResult& run) {
    return static_cast<double>(run.sim_cycles) / osprof::kPaperCpuHz;
  };
  const double cifs_elapsed_s = elapsed_s(cifs_run);
  const double nfs_elapsed_s = elapsed_s(nfs_run);
  const std::uint64_t cifs_requests = cifs_run.counters.at("server_requests");
  const std::uint64_t nfs_rpcs = nfs_run.counters.at("server_requests");
  report.AddOps(cifs.TotalOperations() + nfs.TotalOperations());
  report.WriteProfileSet(cifs, "cifs");
  report.WriteProfileSet(nfs, "nfs");

  osbench::Section("NFS per-RPC profiles");
  for (const char* op : {"lookup", "nfs_readdir", "nfs_read"}) {
    const osprof::Profile* p = nfs.Find(op);
    if (p != nullptr) {
      osbench::ShowProfile(*p);
    }
  }

  osbench::Section("Head-to-head");
  std::printf("  %-34s %12s %12s\n", "", "CIFS(Win)", "NFS");
  std::printf("  %-34s %12.2f %12.2f\n", "grep elapsed (s)", cifs_elapsed_s,
              nfs_elapsed_s);
  std::printf("  %-34s %12llu %12llu\n", "server requests / RPCs",
              static_cast<unsigned long long>(cifs_requests),
              static_cast<unsigned long long>(nfs_rpcs));
  std::printf("  %-34s %12d %12d\n", "max Find/readdir-RPC bucket",
              MaxBucket(cifs, "findfirst"), MaxBucket(nfs, "nfs_readdir"));
  const osprof::Profile* lookup = nfs.Find("lookup");
  std::printf("  %-34s %12s %12llu\n", "LOOKUP RPCs (the lookup storm)", "-",
              static_cast<unsigned long long>(
                  lookup == nullptr ? 0 : lookup->total_operations()));

  osbench::Section("Shape checks");
  const bool cifs_stalls = MaxBucket(cifs, "findfirst") >= 26;
  const bool nfs_no_stalls = MaxBucket(nfs, "nfs_readdir") < 26;
  std::printf("  CIFS Find ops reach the 200ms buckets:       %s\n",
              cifs_stalls ? "YES (delayed-ACK pathology)" : "no");
  std::printf("  NFS readdir RPCs stay below bucket 26:       %s\n",
              nfs_no_stalls ? "YES (request/reply never stalls)" : "no");
  std::printf("  NFS issues more server round trips overall:  %s\n",
              nfs_rpcs > cifs_requests ? "YES (per-component lookups)" : "no");
  report.Check("cifs_find_reaches_stall_buckets", cifs_stalls);
  report.Check("nfs_readdir_never_stalls", nfs_no_stalls);
  report.Check("nfs_more_round_trips", nfs_rpcs > cifs_requests);
  report.Metric("cifs_elapsed_s", cifs_elapsed_s);
  report.Metric("nfs_elapsed_s", nfs_elapsed_s);
  report.Metric("cifs_server_requests", static_cast<double>(cifs_requests));
  report.Metric("nfs_rpcs", static_cast<double>(nfs_rpcs));
  return report.Finish();
}
