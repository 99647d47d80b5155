#include "src/tools/profile_tool.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/core/profile.h"
#include "src/core/sampling.h"

namespace ostools {
namespace {

class ProfileToolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* tmpdir = ::getenv("TMPDIR");
    // One directory per test: ctest -jN runs cases of this fixture
    // concurrently, and shared file names let one case's TearDown delete
    // the files another is reading.  The file names stay as they are,
    // since outputs are checked for them.
    base_ = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
            "/osprof_tool_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(base_);
    path_a_ = base_ + "/osprof_tool_a.prof";
    path_b_ = base_ + "/osprof_tool_b.prof";

    osprof::ProfileSet a(1);
    for (int i = 0; i < 1'000; ++i) {
      a.Add("read", 100);
      a.Add("llseek", 400);
    }
    WriteSet(path_a_, a);

    osprof::ProfileSet b(1);
    for (int i = 0; i < 1'000; ++i) {
      b.Add("read", 100);
      // llseek grew a contended mode.
      b.Add("llseek", i % 4 == 0 ? 3'000'000 : 400);
    }
    WriteSet(path_b_, b);
  }

  void TearDown() override { std::filesystem::remove_all(base_); }

  static void WriteSet(const std::string& path, const osprof::ProfileSet& s) {
    std::ofstream out(path);
    s.Serialize(out);
  }

  int Run(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return RunProfileTool(args, out_, err_);
  }

  std::string base_;
  std::string path_a_;
  std::string path_b_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(ProfileToolTest, HelpAndUsage) {
  EXPECT_EQ(Run({"help"}), 0);
  EXPECT_NE(out_.str().find("usage:"), std::string::npos);
  EXPECT_EQ(Run({}), 1);
  EXPECT_EQ(Run({"bogus"}), 1);
  EXPECT_NE(err_.str().find("usage:"), std::string::npos);
}

TEST_F(ProfileToolTest, RenderAllOps) {
  EXPECT_EQ(Run({"render", path_a_}), 0);
  EXPECT_NE(out_.str().find("read"), std::string::npos);
  EXPECT_NE(out_.str().find("llseek"), std::string::npos);
  EXPECT_NE(out_.str().find('#'), std::string::npos);
}

TEST_F(ProfileToolTest, RenderSingleOp) {
  EXPECT_EQ(Run({"render", path_a_, "read"}), 0);
  EXPECT_NE(out_.str().find("read"), std::string::npos);
  EXPECT_EQ(out_.str().find("llseek"), std::string::npos);
}

TEST_F(ProfileToolTest, RenderUnknownOpFails) {
  EXPECT_EQ(Run({"render", path_a_, "nosuch"}), 2);
  EXPECT_NE(err_.str().find("no operation"), std::string::npos);
}

TEST_F(ProfileToolTest, MissingFileFails) {
  EXPECT_EQ(Run({"render", base_ + "/definitely_not_here.prof"}), 2);
  EXPECT_NE(err_.str().find("cannot open"), std::string::npos);
}

TEST_F(ProfileToolTest, MalformedFileFails) {
  const std::string bad = base_ + "/osprof_tool_bad.prof";
  {
    std::ofstream out(bad);
    out << "this is not a profile\n";
  }
  EXPECT_EQ(Run({"render", bad}), 2);
  EXPECT_NE(err_.str().find("parse error"), std::string::npos);
}

TEST_F(ProfileToolTest, RankOrdersByLatency) {
  EXPECT_EQ(Run({"rank", path_a_}), 0);
  // llseek (400 cycles x 1000) outweighs read (100 x 1000).
  const std::string text = out_.str();
  EXPECT_LT(text.find("llseek"), text.find("read"));
  EXPECT_NE(text.find("%"), std::string::npos);
}

TEST_F(ProfileToolTest, PeaksReportsStructure) {
  EXPECT_EQ(Run({"peaks", path_b_, "llseek"}), 0);
  EXPECT_NE(out_.str().find("2 peaks"), std::string::npos);
}

TEST_F(ProfileToolTest, CompareFlagsTheChangedOp) {
  EXPECT_EQ(Run({"compare", path_a_, path_b_}), 0);
  const std::string text = out_.str();
  EXPECT_NE(text.find("llseek"), std::string::npos);
  EXPECT_NE(text.find("selected 1 of 2"), std::string::npos);
}

TEST_F(ProfileToolTest, CompareWithExplicitMethod) {
  EXPECT_EQ(Run({"compare", path_a_, path_b_, "--method", "chi-square"}), 0);
  EXPECT_NE(out_.str().find("method: chi-square"), std::string::npos);
}

TEST_F(ProfileToolTest, CompareRejectsUnknownMethod) {
  EXPECT_EQ(Run({"compare", path_a_, path_b_, "--method", "psychic"}), 1);
}

TEST_F(ProfileToolTest, GnuplotEmitsScript) {
  EXPECT_EQ(Run({"gnuplot", path_a_, "read"}), 0);
  EXPECT_NE(out_.str().find("set logscale y"), std::string::npos);
  EXPECT_NE(out_.str().find("with boxes"), std::string::npos);
}

TEST_F(ProfileToolTest, CheckPassesConsistentSets) {
  EXPECT_EQ(Run({"check", path_a_}), 0);
  EXPECT_NE(out_.str().find("all profiles consistent"), std::string::npos);
}

TEST_F(ProfileToolTest, OutliersFlagsTheDeviantFile) {
  // Three healthy copies of set A, one deviant set B.
  const std::string c = base_ + "/osprof_tool_c.prof";
  const std::string d = base_ + "/osprof_tool_d.prof";
  osprof::ProfileSet healthy(1);
  for (int i = 0; i < 1'000; ++i) {
    healthy.Add("read", 100);
  }
  WriteSet(c, healthy);
  WriteSet(d, healthy);
  EXPECT_EQ(Run({"outliers", path_a_, c, d, path_b_}), 0);
  EXPECT_NE(out_.str().find("OUTLIER"), std::string::npos);
  EXPECT_NE(out_.str().find("osprof_tool_b.prof"), std::string::npos);
}

TEST_F(ProfileToolTest, OutliersIdenticalFleetIsClean) {
  const std::string c = base_ + "/osprof_tool_c.prof";
  osprof::ProfileSet healthy(1);
  healthy.Add("read", 100);
  WriteSet(c, healthy);
  EXPECT_EQ(Run({"outliers", c, c, c}), 0);
  EXPECT_NE(out_.str().find("no outliers"), std::string::npos);
}

TEST_F(ProfileToolTest, CompareIdenticalSetsSelectsNothing) {
  EXPECT_EQ(Run({"compare", path_a_, path_a_}), 0);
  EXPECT_NE(out_.str().find("selected 0 of"), std::string::npos);
}

TEST_F(ProfileToolTest, GridAndPlot3DRenderSampledFiles) {
  const std::string path = base_ + "/osprof_tool_sampled.sprof";
  osprof::SampledProfileSet sampled(1'000, 1);
  for (int i = 0; i < 500; ++i) {
    sampled.Add("read", 0, 128);
  }
  for (int i = 0; i < 50; ++i) {
    sampled.Add("read", 1'500, 1 << 20);
  }
  {
    std::ofstream out(path);
    sampled.Serialize(out);
  }
  EXPECT_EQ(Run({"grid", path, "read", "5", "25"}), 0);
  EXPECT_NE(out_.str().find("epoch 0"), std::string::npos);
  EXPECT_NE(out_.str().find('#'), std::string::npos);
  EXPECT_EQ(Run({"plot3d", path, "read"}), 0);
  EXPECT_NE(out_.str().find("Elapsed time"), std::string::npos);
  EXPECT_EQ(Run({"grid", path, "ghost"}), 0);  // Missing op: "(no data)".
  EXPECT_NE(out_.str().find("no data"), std::string::npos);
  // Bounds must be whole integers; out-of-range ones are clipped.
  EXPECT_EQ(Run({"grid", path, "read", "abc", "def"}), 1);
  EXPECT_NE(err_.str().find("usage:"), std::string::npos);
  EXPECT_EQ(Run({"grid", path, "read", "5", "25x"}), 1);
  EXPECT_EQ(Run({"grid", path, "read", "-5", "9999"}), 0);
  EXPECT_NE(out_.str().find("epoch 0"), std::string::npos);
}

TEST_F(ProfileToolTest, CheckFlagsTamperedSets) {
  // Corrupt the recorded= checksum of one profile.
  std::ifstream in(path_a_);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  const auto pos = text.find("recorded=1000");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 13, "recorded=1001");
  const std::string tampered = base_ + "/osprof_tool_tampered.prof";
  {
    std::ofstream out(tampered);
    out << text;
  }
  EXPECT_EQ(Run({"check", tampered}), 2);
  EXPECT_NE(out_.str().find("BROKEN"), std::string::npos);
}

}  // namespace
}  // namespace ostools
