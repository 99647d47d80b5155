// Figure 11: packet timelines of a FindFirst transaction -- Windows
// client vs Linux client against a Windows server -- plus the paper's
// registry-key experiment: disabling delayed ACKs improves grep elapsed
// time by ~20%.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/fs/ext2fs.h"
#include "src/net/cifs.h"
#include "src/runner/runner.h"
#include "src/sim/disk.h"
#include "src/sim/kernel.h"
#include "src/sim/task.h"

namespace {

osim::Task<void> EnumerateOnce(osfs::Vfs* vfs, std::string path) {
  const int fd = co_await vfs->Open(path, false);
  while (true) {
    const osfs::DirentBatch batch = co_await vfs->Readdir(fd);
    if (batch.names.empty()) {
      break;
    }
  }
  co_await vfs->Close(fd);
}

// Runs one directory enumeration and prints the packet trace.
void TraceOneTransaction(osnet::ClientOs client_os, const char* title) {
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

  osbench::Section(title);
  std::printf("%s", trace.Render(osprof::kPaperCpuHz).c_str());
  std::printf("  total elapsed: %s\n",
              osprof::FormatSeconds(static_cast<double>(kernel.now()) /
                                    osprof::kPaperCpuHz)
                  .c_str());
}

double GrepElapsed(bool delayed_ack) {
  const osrunner::TrialResult grep = osrunner::RunTrial(
      osbench::CifsGrep(13, osnet::ClientOs::kWindows, delayed_ack), 0);
  return static_cast<double>(grep.sim_cycles) / osprof::kPaperCpuHz;
}

}  // namespace

int main() {
  osbench::Header("Figure 11: FindFirst packet timelines (§6.4)");
  osbench::JsonReport report("fig11_cifs_timeline");

  TraceOneTransaction(osnet::ClientOs::kWindows,
                      "Windows client <-> Windows server (note the 200ms gap)");
  TraceOneTransaction(osnet::ClientOs::kLinux,
                      "Linux client <-> Windows server (FIND_NEXT carries the ACK)");

  osbench::Section("Registry-key experiment: delayed ACKs off");
  const double with_delay = GrepElapsed(/*delayed_ack=*/true);
  const double without_delay = GrepElapsed(/*delayed_ack=*/false);
  const double improvement = 100.0 * (1.0 - without_delay / with_delay);
  std::printf("  grep elapsed, delayed ACKs on:  %.2fs\n", with_delay);
  std::printf("  grep elapsed, delayed ACKs off: %.2fs\n", without_delay);
  std::printf("  improvement: %.1f%%  (paper: ~20%%)\n", improvement);
  report.Check("registry_key_improves_elapsed", improvement > 0.0);
  report.Check("improvement_in_paper_ballpark",
               improvement > 5.0 && improvement < 60.0);
  report.Metric("elapsed_delayed_ack_s", with_delay);
  report.Metric("elapsed_no_delayed_ack_s", without_delay);
  report.Metric("improvement_pct", improvement);
  return report.Finish();
}
