// Layered profiling: the paper's Figure 2 infrastructure.
//
// Three profilers observe the same workload at different depths:
//   * a user-level layer (ProfiledVfs) stacked above the file system, like
//     the paper's instrumented applications;
//   * FoSgen-style instrumentation inside the file system itself
//     (including the internal readpage operation);
//   * a driver-level profiler on the disk, where asynchronous write
//     latency is visible.
// Comparing the layers isolates where time is spent: user-layer minus
// fs-layer is boundary overhead, and only the driver layer sees writeback.
//
//   $ ./layered_profiling

#include <cstdio>

#include "src/core/report.h"
#include "src/fs/ext2fs.h"
#include "src/fs/profiled_vfs.h"
#include "src/profilers/sim_profiler.h"
#include "src/sim/disk.h"
#include "src/sim/kernel.h"
#include "src/workloads/workloads.h"

int main() {
  osim::KernelConfig kcfg;
  kcfg.seed = 17;
  osim::Kernel kernel(kcfg);
  osim::SimDisk disk(&kernel);
  osfs::Ext2SimFs fs(&kernel, &disk);
  fs.AddDir("/postmark");

  // Layer 3: driver-level profiler.
  osprofilers::DriverProfiler driver(&kernel, &disk);
  // Layer 2: in-fs instrumentation.
  osprofilers::SimProfiler fs_prof(&kernel);
  fs.SetProfiler(&fs_prof);
  // Layer 1: user-level profiler stacked on the VFS boundary.
  osprofilers::SimProfiler user_prof(&kernel);
  osfs::ProfiledVfs user_layer(&fs, &user_prof);

  osworkloads::PostmarkConfig pcfg;
  pcfg.initial_files = 200;
  pcfg.transactions = 1'000;
  osworkloads::PostmarkStats stats;
  kernel.Spawn("postmark", osworkloads::PostmarkWorkload(&kernel, &user_layer,
                                                         pcfg, &stats));
  kernel.RunUntilThreadsFinish();

  std::printf("postmark: %llu creates, %llu deletes, %llu reads, %llu appends\n\n",
              static_cast<unsigned long long>(stats.creates),
              static_cast<unsigned long long>(stats.deletes),
              static_cast<unsigned long long>(stats.reads),
              static_cast<unsigned long long>(stats.appends));

  std::printf("=== user level (syscall boundary) ===\n");
  std::printf("%s", osprof::RenderAscii(*user_prof.profiles().Find("write")).c_str());
  std::printf("\n=== file-system level (in-fs instrumentation) ===\n");
  std::printf("%s", osprof::RenderAscii(*fs_prof.profiles().Find("write")).c_str());
  std::printf("\n=== driver level (only here is async write I/O visible) ===\n");
  const osprof::Profile* dw = driver.profiles().Find("disk_write");
  if (dw != nullptr) {
    std::printf("%s", osprof::RenderAscii(*dw).c_str());
  }

  // The point of layering, in numbers.
  const double user_write =
      user_prof.profiles().Find("write")->histogram().MeanLatency();
  const double fs_write =
      fs_prof.profiles().Find("write")->histogram().MeanLatency();
  std::printf("\nmean write latency: user layer %.0f cycles, fs layer %.0f "
              "cycles (boundary cost %.0f)\n",
              user_write, fs_write, user_write - fs_write);
  if (dw != nullptr) {
    std::printf("async disk writes completed: %llu, mean %s -- invisible to "
                "both upper layers\n",
                static_cast<unsigned long long>(dw->total_operations()),
                osprof::FormatSeconds(dw->histogram().MeanLatency() /
                                      osprof::kPaperCpuHz)
                    .c_str());
  }
  return 0;
}
