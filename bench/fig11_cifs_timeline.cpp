// Figure 11: packet timelines of a FindFirst transaction -- Windows
// client vs Linux client against a Windows server -- plus the paper's
// registry-key experiment: disabling delayed ACKs improves grep elapsed
// time by ~20%.

#include <cstdio>
#include <variant>

#include "bench/bench_util.h"
#include "src/net/cifs.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"

namespace {

// Prints one directory enumeration's packet trace.
void TraceOneTransaction(osnet::ClientOs client_os, const char* title) {
  const osbench::PacketTimeline timeline =
      osbench::FindFirstTimeline(client_os);
  osbench::Section(title);
  std::printf("%s", timeline.packets.c_str());
  std::printf("  total elapsed: %s\n",
              osprof::FormatSeconds(static_cast<double>(timeline.elapsed) /
                                    osprof::kPaperCpuHz)
                  .c_str());
}

// Figure 10's Windows-client grep on seed 13, with the client's delayed
// ACKs on or off (the paper's registry key).
double GrepElapsed(bool delayed_ack) {
  osrunner::Scenario grep = *osrunner::BuiltinScenarios().Find("fig10");
  grep.kernel.seed = 13;
  std::get<osrunner::GrepSpec>(grep.workload).cifs.client_delayed_ack =
      delayed_ack;
  return static_cast<double>(osrunner::RunTrial(grep, 0).sim_cycles) /
         osprof::kPaperCpuHz;
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
