// Gray-box calibration: measuring a machine's characteristic times with
// simple workloads (paper §3.1: "For any test setup, these and many other
// characteristic times can be measured in advance by proling simple
// workloads that are known to show peaks corresponding to these times").
//
// This example builds a PriorKnowledge table for the *simulated* machine
// purely from profiles -- without reading any configuration -- and checks
// it against the machine's actual constants:
//
//   * scheduling quantum: two CPU-bound processes on one CPU; the
//     preempted-request peak sits at bucket log2(Q);
//   * full disk rotation / seek ceiling: random single-block reads; the
//     mechanical peak's right edge tracks seek+rotation;
//   * timer tick cost: zero-byte reads; the small secondary peak is the
//     stolen IRQ service time;
//   * context switch: semaphore ping-pong between two threads; the
//     blocked thread's wakeup adds the switch cost.
//
//   $ ./calibrate_machine

#include <cstdio>

#include "src/core/peaks.h"
#include "src/core/prior.h"
#include "src/core/report.h"
#include "src/fs/ext2fs.h"
#include "src/profilers/sim_profiler.h"
#include "src/sim/disk.h"
#include "src/sim/kernel.h"
#include "src/sim/sync.h"
#include "src/workloads/workloads.h"

namespace {

using osprof::Cycles;

osim::KernelConfig MachineUnderTest() {
  osim::KernelConfig cfg;  // The "unknown" machine: all defaults.
  cfg.seed = 77;
  return cfg;
}

// Measures the scheduling quantum: the rightmost peak of a zero-byte-read
// profile under CPU contention sits at ~log2(Q).
Cycles MeasureQuantum() {
  osim::Kernel kernel(MachineUnderTest());
  osim::SimDisk disk(&kernel);
  osfs::Ext2SimFs fs(&kernel, &disk);
  fs.AddFile("/probe", 4096);
  osprofilers::SimProfiler prof(&kernel);
  fs.SetProfiler(&prof);
  for (int p = 0; p < 2; ++p) {
    kernel.Spawn(std::string("p").append(std::to_string(p)),
                 osworkloads::ZeroByteReadWorkload(&kernel, &fs, "/probe",
                                                   800'000, 120));
  }
  kernel.RunUntilThreadsFinish();
  const auto peaks =
      osprof::FindPeaks(prof.profiles().Find("read")->histogram());
  return osprof::BucketLowerBound(peaks.back().mode_bucket);
}

// Measures the timer-tick service cost: the secondary peak of the same
// probe on an idle system.
Cycles MeasureTimerIrq() {
  osim::Kernel kernel(MachineUnderTest());
  osim::SimDisk disk(&kernel);
  osfs::Ext2SimFs fs(&kernel, &disk);
  fs.AddFile("/probe", 4096);
  osprofilers::SimProfiler prof(&kernel);
  fs.SetProfiler(&prof);
  kernel.Spawn("p", osworkloads::ZeroByteReadWorkload(&kernel, &fs, "/probe",
                                                      800'000, 120));
  kernel.RunUntilThreadsFinish();
  const auto peaks =
      osprof::FindPeaks(prof.profiles().Find("read")->histogram());
  // The rightmost small peak is a request that absorbed one tick.
  return static_cast<Cycles>(peaks.back().mean_latency);
}

// Measures the mechanical disk ceiling: random far reads; the right edge
// of the I/O peak is ~full seek + full rotation.
Cycles MeasureDiskCeiling() {
  osim::Kernel kernel(MachineUnderTest());
  osim::SimDisk disk(&kernel);
  osfs::Ext2Config fcfg;
  fcfg.fragmentation = 1.0;  // Spread the file fragments across the disk.
  osfs::Ext2SimFs fs(&kernel, &disk, fcfg);
  fs.AddFile("/data", 256u << 20);
  osprofilers::SimProfiler prof(&kernel);
  fs.SetProfiler(&prof);
  kernel.Spawn("p",
               osworkloads::RandomReadWorkload(&kernel, &fs, "/data", 800, 5));
  kernel.RunUntilThreadsFinish();
  const osprof::Histogram& h = prof.profiles().Find("read")->histogram();
  return osprof::BucketUpperBound(h.LastNonEmpty());
}

// Measures the context-switch cost with a semaphore ping-pong.
Cycles MeasureContextSwitch() {
  osim::Kernel kernel(MachineUnderTest());
  osim::SimSemaphore ping(&kernel, 0, "ping");
  osim::SimSemaphore pong(&kernel, 0, "pong");
  osprof::Histogram rtt(1);
  auto ponger = [](osim::SimSemaphore* in,
                   osim::SimSemaphore* out) -> osim::Task<void> {
    for (int i = 0; i < 2'000; ++i) {
      co_await in->Acquire();
      out->Release();
    }
  };
  auto pinger = [](osim::Kernel* k, osim::SimSemaphore* out,
                   osim::SimSemaphore* in,
                   osprof::Histogram* h) -> osim::Task<void> {
    for (int i = 0; i < 2'000; ++i) {
      const Cycles t0 = k->ReadTsc();
      out->Release();
      co_await in->Acquire();
      h->Add(k->ReadTsc() - t0);
    }
  };
  kernel.Spawn("ponger", ponger(&ping, &pong));
  kernel.Spawn("pinger", pinger(&kernel, &ping, &pong, &rtt));
  kernel.RunUntilThreadsFinish();
  // One round trip = two wakeups = two context switches (single CPU would
  // be exact; on the default machine both threads hold CPUs, so the
  // round trip is dominated by the two dispatch delays).
  return static_cast<Cycles>(rtt.MeanLatency() / 2.0);
}

void Report(const char* what, Cycles measured, Cycles actual) {
  const int mb = osprof::BucketIndex(measured);
  const int ab = osprof::BucketIndex(actual);
  std::printf("  %-24s measured %-10s actual %-10s bucket %d vs %d  %s\n",
              what,
              osprof::FormatCycles(measured, osprof::kPaperCpuHz).c_str(),
              osprof::FormatCycles(actual, osprof::kPaperCpuHz).c_str(), mb,
              ab, std::abs(mb - ab) <= 1 ? "OK" : "off");
}

}  // namespace

int main() {
  std::printf("calibrating the simulated machine from profiles alone...\n\n");
  const osim::KernelConfig actual = MachineUnderTest();
  const osim::DiskConfig disk_actual;

  Report("scheduling quantum", MeasureQuantum(), actual.quantum);
  Report("timer IRQ service", MeasureTimerIrq(), actual.timer_irq_cost);
  Report("disk ceiling (seek+rot)", MeasureDiskCeiling(),
         disk_actual.full_stroke_seek + disk_actual.full_rotation);
  Report("context switch", MeasureContextSwitch(),
         actual.context_switch_cost);

  std::printf("\nThese measurements are what populates a PriorKnowledge\n"
              "table for a new machine -- the same table the benches use\n"
              "to annotate peaks (PriorKnowledge::PaperTestbed()).\n");
  return 0;
}
