// Thread-safety targets for the ThreadSanitizer preset (-DOSPROF_SANITIZE=
// thread, ctest -L tsan): the sharded histogram hammered from real host
// threads, the lazily built bucket tables, and the runner's trial pool
// itself.

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/histogram.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"

namespace osrunner {
namespace {

TEST(ParallelMergeTest, ShardedHistogramUnderConcurrentWriters) {
  osprof::ShardedHistogram sharded(2);
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sharded, t] {
      osprof::Histogram* local = sharded.Local();
      for (int i = 0; i < kAddsPerThread; ++i) {
        local->Add(static_cast<osprof::Cycles>(t * 1000 + i + 1));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const osprof::Histogram merged = sharded.Merge();
  EXPECT_TRUE(merged.CheckConsistency());
  EXPECT_EQ(merged.TotalOperations(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_EQ(sharded.shard_count(), kThreads);
}

// Each resolution's boundary table is built on its first use; four
// threads asking for all sixteen at once must each get one table per
// resolution, equal to a sequential build.
TEST(ParallelMergeTest, BucketTablesBuiltConcurrentlyMatchSequentialBuild) {
  constexpr int kThreads = 4;
  std::vector<std::vector<const std::vector<osprof::Cycles>*>> seen(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int r = 1; r <= osprof::kMaxResolution; ++r) {
        seen[static_cast<std::size_t>(t)].push_back(&osprof::BucketBounds(r));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (int r = 1; r <= osprof::kMaxResolution; ++r) {
    const std::vector<osprof::Cycles> expected =
        osprof::internal::BuildBucketBounds(r);
    for (int t = 0; t < kThreads; ++t) {
      const std::vector<osprof::Cycles>* table =
          seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(r - 1)];
      EXPECT_EQ(table, &osprof::BucketBounds(r)) << "r=" << r;
      EXPECT_EQ(*table, expected) << "r=" << r;
    }
  }
}

TEST(ParallelMergeTest, ConcurrentShardRegistration) {
  // Many instances, many threads registering their shard at once: stresses
  // the id assignment and the mutex-guarded shard list.
  std::vector<std::unique_ptr<osprof::ShardedHistogram>> histograms;
  for (int i = 0; i < 4; ++i) {
    histograms.push_back(std::make_unique<osprof::ShardedHistogram>(1));
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < 6; ++t) {
    writers.emplace_back([&histograms] {
      for (auto& h : histograms) {
        for (int i = 1; i <= 5'000; ++i) {
          h->Local()->Add(static_cast<osprof::Cycles>(i));
        }
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  for (auto& h : histograms) {
    EXPECT_EQ(h->Merge().TotalOperations(), 30'000u);
    EXPECT_TRUE(h->Merge().CheckConsistency());
  }
}

TEST(ParallelMergeTest, RunnerTrialsOnManyWorkers) {
  Scenario s;
  s.name = "tsan_grep";
  s.kernel.seed = 5;
  GrepSpec grep;
  grep.tree.top_dirs = 2;
  grep.tree.subdirs_per_dir = 1;
  grep.tree.depth = 1;
  grep.tree.files_per_dir = 3;
  s.workload = grep;

  RunOptions options;
  options.trials = 8;
  options.jobs = 8;
  const RunResult result = RunScenario(s, options);
  ASSERT_EQ(result.trials.size(), 8u);
  EXPECT_TRUE(result.layers.at("fs").merged.CheckConsistency());

  RunOptions serial;
  serial.trials = 8;
  serial.jobs = 1;
  const RunResult reference = RunScenario(s, serial);
  EXPECT_EQ(result.layers.at("fs").merged.ToString(),
            reference.layers.at("fs").merged.ToString());
}

}  // namespace
}  // namespace osrunner
