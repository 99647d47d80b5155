// Multi-node topology tests: the Kernel partitions its CPUs into
// contiguous per-node slices, SpawnOn pins threads to a node's run queue,
// and children inherit their spawner's node (src/sim/kernel.h).

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/sim/kernel.h"

namespace osim {
namespace {

KernelConfig NodeConfig(int cpus, int nodes) {
  KernelConfig cfg;
  cfg.num_cpus = cpus;
  cfg.num_nodes = nodes;
  cfg.context_switch_cost = 0;
  cfg.timer_tick_period = 0;
  return cfg;
}

TEST(NodeTopology, ContiguousEvenPartition) {
  Kernel k(NodeConfig(8, 4));
  ASSERT_EQ(k.num_nodes(), 4);
  for (int n = 0; n < 4; ++n) {
    EXPECT_EQ(k.node(n).id(), n);
    EXPECT_EQ(k.node(n).first_cpu(), 2 * n);
    EXPECT_EQ(k.node(n).num_cpus(), 2);
  }
  for (int c = 0; c < 8; ++c) {
    EXPECT_EQ(k.node_of_cpu(c), c / 2);
  }
}

TEST(NodeTopology, SingleNodeIsTheDefault) {
  KernelConfig cfg;
  cfg.num_cpus = 4;
  Kernel k(cfg);
  ASSERT_EQ(k.num_nodes(), 1);
  EXPECT_EQ(k.node(0).num_cpus(), 4);
  EXPECT_EQ(k.node_of_cpu(3), 0);
}

TEST(NodeTopology, RejectsUnevenPartition) {
  EXPECT_THROW(Kernel(NodeConfig(3, 2)), std::invalid_argument);
  EXPECT_THROW(Kernel(NodeConfig(2, 4)), std::invalid_argument);
  EXPECT_THROW(Kernel(NodeConfig(2, 0)), std::invalid_argument);
}

TEST(NodeTopology, CurrentNodeIsMinusOneInKernelContext) {
  Kernel k(NodeConfig(4, 2));
  EXPECT_EQ(k.current_node(), -1);
}

Task<void> RecordNode(Kernel* k, int* node_seen, int* cpu_seen) {
  co_await k->Cpu(100);
  *node_seen = k->current_node();
  *cpu_seen = k->current()->cpu();
}

TEST(NodeTopology, SpawnOnPinsToTheNodesCpus) {
  Kernel k(NodeConfig(4, 2));
  int node_seen[2] = {-2, -2};
  int cpu_seen[2] = {-2, -2};
  k.SpawnOn(0, "n0", RecordNode(&k, &node_seen[0], &cpu_seen[0]));
  k.SpawnOn(1, "n1", RecordNode(&k, &node_seen[1], &cpu_seen[1]));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(node_seen[0], 0);
  EXPECT_EQ(node_seen[1], 1);
  // Node 0 owns CPUs {0,1}, node 1 owns {2,3}: pinning is by slice.
  EXPECT_EQ(k.node_of_cpu(cpu_seen[0]), 0);
  EXPECT_EQ(k.node_of_cpu(cpu_seen[1]), 1);
}

TEST(NodeTopology, SpawnOnRejectsUnknownNode) {
  Kernel k(NodeConfig(4, 2));
  EXPECT_THROW(
      k.SpawnOn(2, "x", [](Kernel* kk) -> Task<void> {
        co_await kk->Yield();
      }(&k)),
      std::invalid_argument);
}

Task<void> RecordNodeOnly(Kernel* k, int* node_seen) {
  co_await k->Cpu(100);
  *node_seen = k->current_node();
}

Task<void> SpawnChildOnMyNode(Kernel* k, int* child_node) {
  co_await k->Cpu(100);
  k->Spawn("child", RecordNodeOnly(k, child_node));
}

TEST(NodeTopology, SpawnInheritsTheSpawnersNode) {
  Kernel k(NodeConfig(4, 2));
  int child_node = -2;
  k.SpawnOn(1, "parent", SpawnChildOnMyNode(&k, &child_node));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(child_node, 1);
}

Task<void> SpinOnNode(Kernel* k, int rounds, std::vector<int>* cpus) {
  for (int i = 0; i < rounds; ++i) {
    co_await k->Cpu(5'000);
    cpus->push_back(k->current()->cpu());
    co_await k->Yield();
  }
}

TEST(NodeTopology, SchedulerNeverMigratesAcrossNodes) {
  // Four always-runnable threads on node 0 of a two-node box: they
  // contend for node 0's two CPUs and must never run on node 1's.
  Kernel k(NodeConfig(4, 2));
  std::vector<int> cpus[4];
  for (int t = 0; t < 4; ++t) {
    k.SpawnOn(0, "spin" + std::to_string(t), SpinOnNode(&k, 50, &cpus[t]));
  }
  k.RunUntilThreadsFinish();
  for (int t = 0; t < 4; ++t) {
    ASSERT_EQ(cpus[t].size(), 50u);
    for (const int c : cpus[t]) {
      EXPECT_EQ(k.node_of_cpu(c), 0);
    }
  }
}

Task<void> RecordCpuThenBurn(Kernel* k, int* cpu_seen) {
  *cpu_seen = k->current()->cpu();
  co_await k->Cpu(10'000'000);
}

TEST(NodeTopology, IdleCpusBeyondOneWordDispatchInCpuOrder) {
  // Nodes wider than one 64-bit word of the idle-CPU bitmap.  Thread i of
  // a node is spawned after threads 0..i-1 hold CPUs 0..i-1, so while the
  // run queue holds it every still-idle CPU of its node begins a switch:
  // the lowest one takes it, the rest find the queue drained and go idle
  // again.  A node of n CPUs thus counts n + (n-1) + ... + 1 switches.
  struct Case {
    int cpus;
    int nodes;
    std::uint64_t switches;
  };
  for (const Case& c : {Case{130, 1, 130 * 131 / 2},
                        Case{140, 2, 2 * (70 * 71 / 2)}}) {
    Kernel k(NodeConfig(c.cpus, c.nodes));
    const int per_node = c.cpus / c.nodes;
    std::vector<int> cpu_seen(static_cast<std::size_t>(c.cpus), -2);
    for (int i = 0; i < per_node; ++i) {
      for (int n = 0; n < c.nodes; ++n) {
        k.SpawnOn(n, "burn",
                  RecordCpuThenBurn(&k, &cpu_seen[static_cast<std::size_t>(
                                             n * per_node + i)]));
      }
      k.RunFor(1);
    }
    k.RunUntilThreadsFinish();
    for (int n = 0; n < c.nodes; ++n) {
      for (int i = 0; i < per_node; ++i) {
        EXPECT_EQ(cpu_seen[static_cast<std::size_t>(n * per_node + i)],
                  k.node(n).first_cpu() + i)
            << c.cpus << " CPUs, node " << n << ", thread " << i;
      }
    }
    EXPECT_EQ(k.context_switches(), c.switches) << c.cpus << " CPUs";
  }
}

Task<void> RecordDispatchThenBurn(Kernel* k, int* cpu_seen, Cycles* at) {
  *cpu_seen = k->current()->cpu();
  *at = k->now();
  co_await k->Cpu(1'000);
}

TEST(NodeTopology, OneSwitchBatchPerWordFillsCpusLowestFirst) {
  // 130 threads runnable at once on a 130-CPU node: the first wakeup
  // drains the node's three idle-bitmap words into three switch batches,
  // and each batch completes its CPUs lowest first, so thread i lands on
  // CPU i, all one switch after the spawn.
  KernelConfig cfg = NodeConfig(130, 1);
  cfg.context_switch_cost = 9'520;
  Kernel k(cfg);
  std::vector<int> cpu_seen(130, -2);
  std::vector<Cycles> at(130, 0);
  for (std::size_t i = 0; i < 130; ++i) {
    k.Spawn("burn", RecordDispatchThenBurn(&k, &cpu_seen[i], &at[i]));
  }
  k.RunUntilThreadsFinish();
  for (std::size_t i = 0; i < 130; ++i) {
    EXPECT_EQ(cpu_seen[i], static_cast<int>(i)) << "thread " << i;
    EXPECT_EQ(at[i], 9'520u) << "thread " << i;
  }
  EXPECT_EQ(k.context_switches(), 130u);
}

}  // namespace
}  // namespace osim
