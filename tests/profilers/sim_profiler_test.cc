#include "src/profilers/sim_profiler.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "src/core/clock.h"
#include "src/core/peaks.h"
#include "src/fs/ext2fs.h"
#include "src/sim/disk.h"

namespace osprofilers {
namespace {

using osim::KernelConfig;
using osim::Task;

KernelConfig QuietConfig(int num_cpus = 1) {
  KernelConfig cfg;
  cfg.num_cpus = num_cpus;
  cfg.context_switch_cost = 0;
  cfg.timer_tick_period = 0;
  return cfg;
}

Task<int> Burn(Kernel* k, Cycles cycles) {
  co_await k->Cpu(cycles);
  co_return 7;
}

// An op body that burns `cycles` and reports `value` through *out, the
// way Ext2's readdir fills in the value its WrapWithValue correlates.
Task<void> BurnReporting(Kernel* k, Cycles cycles, std::uint64_t value,
                         std::uint64_t* out) {
  co_await k->Cpu(cycles);
  *out = value;
}

// Times one such body under WrapWithValue.
void RunWithValue(Kernel* k, SimProfiler* prof, osprof::ProbeHandle op,
                  Cycles cycles, std::uint64_t value) {
  auto body = [](Kernel* kk, SimProfiler* p, osprof::ProbeHandle h, Cycles c,
                 std::uint64_t v) -> Task<void> {
    std::uint64_t reported = 0;
    co_await p->WrapWithValue(h, BurnReporting(kk, c, v, &reported), &reported);
  };
  k->Spawn("t", body(k, prof, op, cycles, value));
  k->RunUntilThreadsFinish();
}

TEST(SimProfiler, WrapMeasuresSimulatedLatency) {
  Kernel k(QuietConfig());
  SimProfiler prof(&k);
  const osprof::ProbeHandle op_h = prof.Resolve("op");
  auto body = [](Kernel* kk, SimProfiler* p, osprof::ProbeHandle op) -> Task<void> {
    const int v = co_await p->Wrap(op, Burn(kk, 1000));
    EXPECT_EQ(v, 7);
  };
  k.Spawn("t", body(&k, &prof, op_h));
  k.RunUntilThreadsFinish();
  const osprof::Profile* op = prof.profiles().Find("op");
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->total_operations(), 1u);
  EXPECT_EQ(op->total_latency(), 1000u);  // Exact: no overhead charging.
}

TEST(SimProfiler, OverheadChargingAddsCostsAndFloor) {
  Kernel k(QuietConfig());
  SimProfiler prof(&k);
  prof.set_charge_overhead(true);
  const osprof::ProbeHandle noop_h = prof.Resolve("noop");
  auto body = [](Kernel* kk, SimProfiler* p, osprof::ProbeHandle op) -> Task<void> {
    (void)co_await p->Wrap(op, Burn(kk, 0));
  };
  k.Spawn("t", body(&k, &prof, noop_h));
  k.RunUntilThreadsFinish();
  const osprof::Profile* op = prof.profiles().Find("noop");
  ASSERT_NE(op, nullptr);
  // The measured window contains exactly the inside-TSC costs: the
  // 40-cycle floor of §5.2, i.e. bucket 5.
  EXPECT_EQ(op->total_latency(), prof.costs().MeasuredFloor());
  EXPECT_EQ(op->histogram().FirstNonEmpty(), 5);
  // The simulation consumed the full per-op instrumentation cost.
  EXPECT_EQ(k.now(), prof.costs().Total());
}

TEST(SimProfiler, DefaultCostsMatchPaperDecomposition) {
  // §5.2 pins three facts: ~200 cycles total per probed operation, a
  // 40-cycle floor between the TSC reads (the smallest recordable value,
  // bucket 5), and sort/store accounting for half the overhead (2.0% of
  // the 4.0% total).
  InstrumentationCosts costs;
  EXPECT_NEAR(static_cast<double>(costs.Total()), 200.0, 25.0);
  EXPECT_EQ(costs.MeasuredFloor(), 40u);
  // The §5.2 component ratio: calls : TSC : store = 1.5% : 0.5% : 2.0%.
  EXPECT_NEAR(static_cast<double>(costs.CallTotal()) /
                  static_cast<double>(costs.TscTotal()),
              3.0, 0.1);
  EXPECT_NEAR(static_cast<double>(costs.store) /
                  static_cast<double>(costs.TscTotal()),
              4.0, 0.1);
}

TEST(SimProfiler, SamplingSplitsEpochs) {
  Kernel k(QuietConfig());
  SimProfiler prof(&k);
  prof.EnableSampling(10'000);
  const osprof::ProbeHandle op_h = prof.Resolve("op");
  auto body = [](Kernel* kk, SimProfiler* p, osprof::ProbeHandle op) -> Task<void> {
    for (int i = 0; i < 5; ++i) {
      (void)co_await p->Wrap(op, Burn(kk, 4'000));
    }
  };
  k.Spawn("t", body(&k, &prof, op_h));
  k.RunUntilThreadsFinish();
  const osprof::SampledProfile* sp = prof.sampled()->Find("op");
  ASSERT_NE(sp, nullptr);
  EXPECT_GE(sp->num_epochs(), 2);
  EXPECT_EQ(sp->Flatten().TotalOperations(), 5u);
}

TEST(SimProfiler, CorrelatorReceivesValues) {
  Kernel k(QuietConfig());
  SimProfiler prof(&k);
  osprof::Peak fast;
  fast.first_bucket = 0;
  fast.last_bucket = 11;
  osprof::Peak slow;
  slow.first_bucket = 12;
  slow.last_bucket = 40;
  osprof::ValueCorrelator corr("flag", {fast, slow});
  prof.AttachCorrelator("op", &corr);
  const osprof::ProbeHandle op = prof.Resolve("op");
  RunWithValue(&k, &prof, op, 100, 1024);    // Fast peak, flag set.
  RunWithValue(&k, &prof, op, 100'000, 0);  // Slow peak, flag clear.
  EXPECT_EQ(corr.peak_values(0).bucket(10), 1u);
  EXPECT_EQ(corr.peak_values(1).bucket(0), 1u);
}

// With overhead charging on, the charged wrapper reads the value the same
// way after the measured window closes.
TEST(SimProfiler, ChargedWrapWithValueCorrelates) {
  Kernel k(QuietConfig());
  SimProfiler prof(&k);
  prof.set_charge_overhead(true);
  osprof::Peak any;
  any.first_bucket = 0;
  any.last_bucket = 40;
  osprof::ValueCorrelator corr("flag", {any});
  prof.AttachCorrelator("op", &corr);
  RunWithValue(&k, &prof, prof.Resolve("op"), 1'000, 1024);
  EXPECT_EQ(corr.peak_values(0).bucket(10), 1u);
  EXPECT_EQ(prof.profiles().Find("op")->total_latency(),
            1'000 + prof.costs().MeasuredFloor());
}

TEST(SimProfiler, ResetClearsDataKeepsConfig) {
  Kernel k(QuietConfig());
  SimProfiler prof(&k);
  prof.EnableSampling(1'000);
  const osprof::ProbeHandle op = prof.Resolve("op");
  prof.Record(op, 100);
  prof.Reset();
  EXPECT_TRUE(prof.profiles().empty());
  ASSERT_NE(prof.sampled(), nullptr);
  EXPECT_EQ(prof.sampled()->OperationNames().size(), 0u);
}

TEST(SimProfiler, ResolveOrderDoesNotAffectSerialization) {
  Kernel k(QuietConfig());
  SimProfiler forward(&k);
  SimProfiler reverse(&k);
  // Intern the same ops in opposite orders: the dense ids differ, but the
  // serialized sets must not (iteration is by sorted name, not by id).
  const osprof::ProbeHandle fwd_a = forward.Resolve("alpha");
  const osprof::ProbeHandle fwd_b = forward.Resolve("beta");
  const osprof::ProbeHandle rev_b = reverse.Resolve("beta");
  const osprof::ProbeHandle rev_a = reverse.Resolve("alpha");
  EXPECT_NE(fwd_a.id(), rev_a.id());
  for (int i = 0; i < 50; ++i) {
    const Cycles latency = static_cast<Cycles>(80 + 113 * i);
    forward.Record(fwd_a, latency);
    forward.Record(fwd_b, latency * 2);
    reverse.Record(rev_a, latency);
    reverse.Record(rev_b, latency * 2);
  }
  EXPECT_EQ(forward.profiles().ToString(), reverse.profiles().ToString());
}

TEST(SimProfiler, HandlesSurviveReset) {
  Kernel k(QuietConfig());
  SimProfiler prof(&k);
  const osprof::ProbeHandle op = prof.Resolve("op");
  prof.Record(op, 100);
  prof.Record(op, 200);
  ASSERT_NE(prof.profiles().Find("op"), nullptr);
  EXPECT_EQ(prof.profiles().Find("op")->total_operations(), 2u);

  prof.Reset();
  EXPECT_TRUE(prof.profiles().empty());

  // The same pre-Reset handle keeps recording into the same op; counts
  // reflect only post-Reset measurements.
  prof.Record(op, 300);
  ASSERT_NE(prof.profiles().Find("op"), nullptr);
  EXPECT_EQ(prof.profiles().Find("op")->total_operations(), 1u);
  EXPECT_EQ(prof.profiles().Find("op")->total_latency(), 300u);
  // Re-resolving after Reset yields the identical id.
  EXPECT_EQ(prof.Resolve("op").id(), op.id());
}

TEST(SimProfiler, ResolvedButUnrecordedOpsInvisibleInCollect) {
  Kernel k(QuietConfig());
  SimProfiler prof(&k);
  (void)prof.Resolve("never_fired");
  const osprof::ProbeHandle fired = prof.Resolve("fired");
  prof.Record(fired, 100);
  const osprof::ProfileSet snapshot = prof.Collect();
  EXPECT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot.Find("never_fired"), nullptr);
  ASSERT_NE(snapshot.Find("fired"), nullptr);
}

TEST(SimProfiler, HandleWrapRecordsAndSamplesAfterReset) {
  Kernel k(QuietConfig());
  SimProfiler prof(&k);
  prof.EnableSampling(10'000);
  const osprof::ProbeHandle op = prof.Resolve("op");
  auto body = [](Kernel* kk, SimProfiler* p,
                 osprof::ProbeHandle h) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      (void)co_await p->Wrap(h, Burn(kk, 4'000));
    }
  };
  k.Spawn("t1", body(&k, &prof, op));
  k.RunUntilThreadsFinish();
  ASSERT_NE(prof.profiles().Find("op"), nullptr);
  EXPECT_EQ(prof.profiles().Find("op")->total_operations(), 3u);
  ASSERT_NE(prof.sampled()->Find("op"), nullptr);
  EXPECT_EQ(prof.sampled()->Find("op")->Flatten().TotalOperations(), 3u);

  // After Reset the cached sampled-slot pointers are stale-proof: the
  // handle keeps working against the fresh sampled set.
  prof.Reset();
  k.Spawn("t2", body(&k, &prof, op));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(prof.profiles().Find("op")->total_operations(), 3u);
  ASSERT_NE(prof.sampled()->Find("op"), nullptr);
  EXPECT_EQ(prof.sampled()->Find("op")->Flatten().TotalOperations(), 3u);
}

TEST(SimProfiler, CorrelatorRoutesThroughHandles) {
  Kernel k(QuietConfig());
  SimProfiler prof(&k);
  osprof::Peak fast;
  fast.first_bucket = 0;
  fast.last_bucket = 11;
  osprof::Peak slow;
  slow.first_bucket = 12;
  slow.last_bucket = 40;
  osprof::ValueCorrelator corr("flag", {fast, slow});
  // Resolve before attach: AttachCorrelator must hit the same slot.
  const osprof::ProbeHandle op = prof.Resolve("op");
  prof.AttachCorrelator("op", &corr);
  RunWithValue(&k, &prof, op, 100, 1024);
  RunWithValue(&k, &prof, op, 100'000, 0);
  EXPECT_EQ(corr.peak_values(0).bucket(10), 1u);
  EXPECT_EQ(corr.peak_values(1).bucket(0), 1u);
  // An op without a correlator attached is a no-op routing-wise.
  const osprof::ProbeHandle other = prof.Resolve("other");
  RunWithValue(&k, &prof, other, 50, 7);
  ASSERT_NE(prof.profiles().Find("other"), nullptr);
  EXPECT_EQ(corr.peak_values(0).TotalOperations(), 1u);
}

TEST(DriverProfiler, SeesReadsAndWritesWithQueueing) {
  Kernel k(QuietConfig());
  osim::SimDisk disk(&k);
  DriverProfiler driver(&k, &disk);
  disk.Submit(osim::DiskOp::kRead, 1'000, 8, nullptr);
  disk.Submit(osim::DiskOp::kWrite, 500'000, 8, nullptr);
  k.RunFor(Cycles{1} << 33);
  const osprof::ProfileSet& p = driver.profiles();
  ASSERT_NE(p.Find("disk_read"), nullptr);
  ASSERT_NE(p.Find("disk_write"), nullptr);
  EXPECT_EQ(p.Find("disk_read")->total_operations(), 1u);
  EXPECT_EQ(p.Find("disk_write")->total_operations(), 1u);
  // The write queued behind the read.
  EXPECT_GT(p.Find("disk_write_queue")->total_latency(), 0u);
}

// --- Call edges (§3.1's function granularity) -------------------------------

Task<void> Parent(Kernel* k, SimProfiler* p) {
  co_await k->Cpu(1'000);
  const osprof::ProbeHandle leaf = p->Resolve("leaf");
  (void)co_await p->Wrap(leaf, Burn(k, 500));
  (void)co_await p->Wrap(leaf, Burn(k, 500));
}

Task<void> Root(Kernel* k, SimProfiler* p) {
  const osprof::ProbeHandle parent = p->Resolve("parent");
  co_await p->Wrap(parent, Parent(k, p));
}

// One row of CallGraphReport's per-operation table.
std::string ReportRow(const char* op, unsigned long long calls, Cycles total,
                      Cycles self, Cycles children) {
  const auto seconds = [](Cycles cycles) {
    return osprof::FormatSeconds(static_cast<double>(cycles) /
                                 osprof::kPaperCpuHz);
  };
  char line[160];
  std::snprintf(line, sizeof(line), "  %-16s %-12llu %-12s %-12s %-12s\n", op,
                calls, seconds(total).c_str(), seconds(self).c_str(),
                seconds(children).c_str());
  return line;
}

TEST(SimProfilerCallGraph, SplitsSelfAndChildTime) {
  Kernel k(QuietConfig(2));
  SimProfiler prof(&k);
  k.Spawn("t", Root(&k, &prof));
  k.RunUntilThreadsFinish();

  // Flat totals.
  EXPECT_EQ(prof.profiles().Find("parent")->total_operations(), 1u);
  EXPECT_EQ(prof.profiles().Find("leaf")->total_operations(), 2u);
  EXPECT_EQ(prof.profiles().Find("parent")->total_latency(), 2'000u);
  EXPECT_EQ(prof.profiles().Find("leaf")->total_latency(), 1'000u);

  // The one stored edge is parent->leaf; the top-level call to parent is
  // derived from the flat profile.
  EXPECT_EQ(prof.edges().size(), 1u);
  EXPECT_EQ(prof.edges().Find("parent->leaf")->total_operations(), 2u);

  // The report attributes half of parent's time to its children.
  const std::string report = prof.CallGraphReport(osprof::kPaperCpuHz);
  EXPECT_NE(report.find(ReportRow("parent", 1, 2'000, 1'000, 1'000)),
            std::string::npos)
      << report;
  EXPECT_NE(report.find(ReportRow("leaf", 2, 1'000, 1'000, 0)),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("parent -> leaf: 2 calls"), std::string::npos);
  EXPECT_NE(report.find("- -> parent: 1 calls"), std::string::npos);
  EXPECT_EQ(report.find("- -> leaf"), std::string::npos);
}

TEST(SimProfilerCallGraph, EdgeSummariesSortByWeight) {
  Kernel k(QuietConfig(2));
  SimProfiler prof(&k);
  auto body = [](Kernel* kk, SimProfiler* p) -> Task<void> {
    const osprof::ProbeHandle heavy = p->Resolve("heavy");
    const osprof::ProbeHandle light = p->Resolve("light");
    (void)co_await p->Wrap(light, Burn(kk, 100));
    (void)co_await p->Wrap(heavy, Burn(kk, 100'000));
  };
  k.Spawn("t", body(&k, &prof));
  k.RunUntilThreadsFinish();
  const auto edges = prof.EdgeSummaries();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].caller, "-");
  EXPECT_EQ(edges[0].callee, "heavy");
  EXPECT_EQ(edges[0].total_latency, 100'000u);
  EXPECT_EQ(edges[1].callee, "light");
  EXPECT_EQ(edges[1].calls, 1u);
}

TEST(SimProfilerCallGraph, PerThreadStacksDoNotCrossTalk) {
  Kernel k(QuietConfig(2));
  SimProfiler prof(&k);
  auto body = [](Kernel* kk, SimProfiler* p,
                 osprof::ProbeHandle outer) -> Task<void> {
    for (int i = 0; i < 50; ++i) {
      co_await p->Wrap(outer, Root(kk, p));
    }
  };
  k.Spawn("a", body(&k, &prof, prof.Resolve("opA")));
  k.Spawn("b", body(&k, &prof, prof.Resolve("opB")));
  k.RunUntilThreadsFinish();
  // Every leaf call attributes to "parent", never to opA/opB directly.
  EXPECT_EQ(prof.edges().Find("parent->leaf")->total_operations(), 200u);
  EXPECT_EQ(prof.edges().Find("opA->leaf"), nullptr);
  EXPECT_EQ(prof.edges().Find("opB->leaf"), nullptr);
  EXPECT_EQ(prof.edges().Find("opA->parent")->total_operations(), 50u);
  EXPECT_EQ(prof.edges().Find("opB->parent")->total_operations(), 50u);
}

TEST(SimProfilerCallGraph, CapturesReaddirReadpageNesting) {
  // The paper's own example: Ext2 readdir calls readpage for cold pages.
  Kernel k(QuietConfig(2));
  osim::SimDisk disk(&k);
  osfs::Ext2SimFs fs(&k, &disk);
  fs.AddDir("/d");
  for (int i = 0; i < 80; ++i) {
    fs.AddFile("/d/f" + std::to_string(i), 200);
  }
  SimProfiler prof(&k);
  fs.SetProfiler(&prof);
  auto body = [](osfs::Vfs* vfs) -> Task<void> {
    const int fd = co_await vfs->Open("/d", false);
    while (true) {
      const osfs::DirentBatch batch = co_await vfs->Readdir(fd);
      if (batch.names.empty()) {
        break;
      }
    }
    co_await vfs->Close(fd);
  };
  k.Spawn("r", body(&fs));
  k.RunUntilThreadsFinish();

  const osprof::Profile* edge = prof.edges().Find("readdir->readpage");
  ASSERT_NE(edge, nullptr);
  EXPECT_GT(edge->total_operations(), 0u);
  // No readpage happened outside readdir, and readdir itself is a
  // top-level op here.
  EXPECT_EQ(edge->total_operations(),
            prof.profiles().Find("readpage")->total_operations());
  bool readdir_top_level = false;
  for (const SimProfiler::EdgeSummary& e : prof.EdgeSummaries()) {
    EXPECT_FALSE(e.caller == "-" && e.callee == "readpage");
    readdir_top_level |= e.caller == "-" && e.callee == "readdir";
  }
  EXPECT_TRUE(readdir_top_level);
}

// Reset() drops the collected data but keeps the interned op and edge
// tables: handles resolved before the reset keep recording into the same
// slots, and re-run edges reuse their ids (their names are built exactly
// once per profiler, not once per run).
TEST(SimProfilerCallGraph, ResetKeepsHandlesAndEdgeIdsButClearsCounts) {
  Kernel k(QuietConfig(2));
  SimProfiler prof(&k);
  const osprof::ProbeHandle parent = prof.Resolve("parent");
  const osprof::ProbeHandle leaf = prof.Resolve("leaf");
  auto body = [](Kernel* kk, SimProfiler* p, osprof::ProbeHandle outer,
                 osprof::ProbeHandle inner) -> Task<void> {
    (void)co_await p->Wrap(outer, WrapIfAttached(p, inner, Burn(kk, 500)));
  };
  k.Spawn("t", body(&k, &prof, parent, leaf));
  k.RunUntilThreadsFinish();
  ASSERT_NE(prof.edges().Find("parent->leaf"), nullptr);
  const osprof::OpId edge_id = prof.edges().ops().Find("parent->leaf");
  ASSERT_FALSE(prof.layered()->empty());

  prof.Reset();
  // Counts are gone everywhere (ops turn invisible until they record
  // again -- their slots and ids stay)...
  EXPECT_EQ(prof.profiles().Find("parent"), nullptr);
  EXPECT_EQ(prof.edges().Find("parent->leaf"), nullptr);
  EXPECT_TRUE(prof.layered()->empty());
  EXPECT_TRUE(prof.EdgeSummaries().empty());

  // ...but the pre-reset handles still record into the same ops, and the
  // edge lands under the same interned id.
  EXPECT_EQ(prof.Resolve("parent").id(), parent.id());
  EXPECT_EQ(prof.Resolve("leaf").id(), leaf.id());
  k.Spawn("t2", body(&k, &prof, parent, leaf));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(prof.profiles().Find("parent")->total_operations(), 1u);
  EXPECT_EQ(prof.edges().Find("parent->leaf")->total_operations(), 1u);
  EXPECT_EQ(prof.edges().ops().Find("parent->leaf"), edge_id);
  EXPECT_EQ(prof.edges().ops().size(), 1u);
  EXPECT_FALSE(prof.layered()->empty());
}

}  // namespace
}  // namespace osprofilers
