// The bench JSON reporter, exercised the way a bench binary uses it:
// point OSPROF_BENCH_JSON_DIR at a scratch directory, record some
// checks/metrics/profiles, Finish(), and inspect BENCH_<name>.json.

#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/core/profile.h"

namespace osbench {
namespace {

class BenchJsonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* tmpdir = ::getenv("TMPDIR");
    // One directory per test: ctest -jN runs cases of this fixture
    // concurrently, and each writes BENCH_unit_bench.json.
    dir_ = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
           "/osprof_bench_json_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
    ::setenv("OSPROF_BENCH_JSON_DIR", dir_.c_str(), 1);
  }

  void TearDown() override {
    ::unsetenv("OSPROF_BENCH_JSON_DIR");
    std::filesystem::remove_all(dir_);
  }

  static std::string Slurp(const std::string& path) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  std::string dir_;
};

TEST_F(BenchJsonTest, WritesWellFormedReport) {
  JsonReport report("unit_bench");
  report.AddSimCycles(1'000'000);
  report.AddOps(500);
  EXPECT_TRUE(report.Check("always_true", true));
  EXPECT_FALSE(report.Check("always_false", false));
  report.Metric("elapsed_s", 1.25);

  osprof::ProfileSet set(1);
  for (int i = 0; i < 100; ++i) {
    set.Add("read", 1 << 10);
  }
  const std::string prof_path = report.WriteProfileSet(set, "fs");
  EXPECT_EQ(prof_path, dir_ + "/BENCH_unit_bench.fs.prof");

  EXPECT_EQ(report.Finish(), 0);

  const std::string json = Slurp(dir_ + "/BENCH_unit_bench.json");
  EXPECT_NE(json.find("\"schema\": \"osprof-bench-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"unit_bench\""), std::string::npos);
  EXPECT_NE(json.find("\"sim_cycles\": 1000000"), std::string::npos);
  EXPECT_NE(json.find("\"total_ops\": 500"), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"ops_per_sec\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"always_true\""), std::string::npos);
  EXPECT_NE(json.find("\"checks_failed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"elapsed_s\": 1.25"), std::string::npos);
  EXPECT_NE(json.find("BENCH_unit_bench.fs.prof"), std::string::npos);

  // The serialized profile set round-trips.
  std::ifstream prof(prof_path);
  const osprof::ProfileSet parsed = osprof::ProfileSet::Parse(prof);
  EXPECT_EQ(parsed.TotalOperations(), 100u);
}

TEST_F(BenchJsonTest, EmptyDirEnvWritesToCwd) {
  ::setenv("OSPROF_BENCH_JSON_DIR", "", 1);
  JsonReport report("unit_bench");
  EXPECT_EQ(report.Finish(), 0);
  // With no directory override the report lands in the working directory.
  std::ifstream in("BENCH_unit_bench.json");
  EXPECT_TRUE(in.good());
  in.close();
  std::remove("BENCH_unit_bench.json");
}

// BenchOutputPath places every bench output file: a directory given with
// or without its trailing slash names the same file.
TEST_F(BenchJsonTest, OutputPathJoinsTheDirectoryOnce) {
  EXPECT_EQ(BenchOutputPath("BENCH_x.layers"), dir_ + "/BENCH_x.layers");
  ::setenv("OSPROF_BENCH_JSON_DIR", (dir_ + "/").c_str(), 1);
  EXPECT_EQ(BenchOutputPath("BENCH_x.layers"), dir_ + "/BENCH_x.layers");
  ::unsetenv("OSPROF_BENCH_JSON_DIR");
  EXPECT_EQ(BenchOutputPath("BENCH_x.layers"), "BENCH_x.layers");
}

TEST_F(BenchJsonTest, ChecksFailedCountsOnlyFailures) {
  JsonReport report("unit_bench");
  report.Check("a", true);
  report.Check("b", true);
  EXPECT_EQ(report.Finish(), 0);
  const std::string json = Slurp(dir_ + "/BENCH_unit_bench.json");
  EXPECT_NE(json.find("\"checks_failed\": 0"), std::string::npos);
}

}  // namespace
}  // namespace osbench
