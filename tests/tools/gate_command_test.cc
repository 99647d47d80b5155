#include "src/tools/gate_command.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/histogram.h"
#include "src/core/layered.h"
#include "src/core/profile.h"
#include "src/runner/scenario.h"
#include "src/tools/scenario_front_end.h"
#include "tests/test_files.h"

namespace ostools {
namespace {

// All tests gate fig06 (llseek contention): it is the fastest scenario
// that exercises several operations in one "fs"-layer profile set.
constexpr const char* kScenario = "fig06";
constexpr const char* kLayerSuffix = ".fs.prof";
using ostest::kGoldenDir;
using ostest::ReadFile;

class GateCommandTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* tmpdir = ::getenv("TMPDIR");
    base_ = std::string(tmpdir != nullptr ? tmpdir : "/tmp");
    // Suffix paths with the test name: ctest -jN runs cases of this
    // fixture concurrently, and a shared prefix lets them clobber each
    // other's baselines mid-gate.
    const std::string tag =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    prefix_ = base_ + "/osprof_gate_golden_" + tag;
    perturbed_prefix_ = base_ + "/osprof_gate_perturbed_" + tag;
    json_path_ = base_ + "/osprof_gate_verdict_" + tag + ".json";
  }

  void TearDown() override {
    std::remove((prefix_ + kLayerSuffix).c_str());
    std::remove((prefix_ + ".layers").c_str());
    std::remove((perturbed_prefix_ + kLayerSuffix).c_str());
    std::remove((perturbed_prefix_ + ".layers").c_str());
    std::remove(json_path_.c_str());
  }

  // Copies one baseline file.
  static void CopyFile(const std::string& from, const std::string& to) {
    std::ofstream(to) << ReadFile(from);
  }

  int Run(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return RunGateCommand(args, out_, err_);
  }

  std::string base_;
  std::string prefix_;
  std::string perturbed_prefix_;
  std::string json_path_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(GateCommandTest, UsageErrors) {
  EXPECT_EQ(Run({}), 1);
  EXPECT_NE(err_.str().find("usage:"), std::string::npos);
  EXPECT_EQ(Run({kScenario, "--threshold=abc"}), 1);
  // Only a whole token that is a finite number >= 0 sets the threshold.
  for (const char* bad : {"0.5x", "-3", "nan"}) {
    const std::string value(bad);
    EXPECT_EQ(Run({kScenario, "--threshold=" + value}), 1) << value;
    EXPECT_NE(err_.str().find("bad --threshold value '" + value + "'"),
              std::string::npos)
        << value;
  }
  EXPECT_EQ(Run({kScenario, "--raters=emd,bogus"}), 1);
  EXPECT_NE(err_.str().find("unknown rater"), std::string::npos);
  EXPECT_EQ(Run({kScenario, "--trials=0"}), 1);
  EXPECT_EQ(Run({kScenario, "--trials=2x"}), 1);
  EXPECT_NE(err_.str().find("bad --trials value '2x'"), std::string::npos);
  EXPECT_EQ(Run({kScenario, "--no-such-flag"}), 1);
}

TEST_F(GateCommandTest, ListPrintsScenarios) {
  EXPECT_EQ(Run({"--list"}), 0);
  EXPECT_NE(out_.str().find(kScenario), std::string::npos);
  EXPECT_NE(out_.str().find("fig07_cifs"), std::string::npos);
}

TEST_F(GateCommandTest, UnknownScenarioExits2) {
  EXPECT_EQ(Run({"no_such_scenario"}), 2);
  EXPECT_NE(err_.str().find("unknown scenario"), std::string::npos);
}

TEST_F(GateCommandTest, MissingBaselineExits2) {
  EXPECT_EQ(Run({kScenario, "--baseline=" + prefix_ + "_absent"}), 2);
  EXPECT_NE(err_.str().find("missing baseline"), std::string::npos);
  EXPECT_NE(err_.str().find("--update"), std::string::npos);
}

TEST_F(GateCommandTest, CorruptBaselineExits2) {
  std::ofstream(prefix_ + kLayerSuffix) << "this is not a profile set\n";
  EXPECT_EQ(Run({kScenario, "--baseline=" + prefix_}), 2);
  EXPECT_NE(err_.str().find("corrupt baseline"), std::string::npos);

  // "fs -5" (line 4) is corrupt too; it used to read as 2^64-5 (exit 3).
  CopyFile(kGoldenDir + kScenario + kLayerSuffix, prefix_ + kLayerSuffix);
  std::string layers = ReadFile(kGoldenDir + kScenario + ".layers");
  layers.replace(layers.find(" fs 0 "), 6, " fs -5 ");
  std::ofstream(prefix_ + ".layers") << layers;
  EXPECT_EQ(Run({kScenario, "--baseline=" + prefix_}), 2);
  EXPECT_NE(err_.str().find("corrupt baseline " + prefix_ +
                            ".layers: ParseLayers line 4:"),
            std::string::npos)
      << err_.str();
}

TEST_F(GateCommandTest, UpdateRoundTripThenCleanGatePasses) {
  ASSERT_EQ(Run({kScenario, "--update", "--baseline=" + prefix_}), 0);
  EXPECT_NE(out_.str().find("updated"), std::string::npos);

  // The written golden parses back to a non-empty set.
  const osprof::ProfileSet golden =
      osprof::ProfileSet::ParseString(ReadFile(prefix_ + kLayerSuffix));
  EXPECT_GT(golden.size(), 0u);
  EXPECT_GT(golden.TotalOperations(), 0u);

  // Re-running the deterministic scenario scores distance 0 everywhere.
  EXPECT_EQ(Run({kScenario, "--baseline=" + prefix_}), 0);
  EXPECT_NE(out_.str().find("gate PASS"), std::string::npos);
  EXPECT_EQ(out_.str().find("REGRESSION"), std::string::npos);
}

TEST_F(GateCommandTest, JsonVerdictSchema) {
  ASSERT_EQ(Run({kScenario, "--update", "--baseline=" + prefix_}), 0);
  ASSERT_EQ(Run({kScenario, "--baseline=" + prefix_,
                 "--json=" + json_path_}),
            0);
  const std::string json = ReadFile(json_path_);
  EXPECT_NE(json.find("\"schema\": \"osprof-gate-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"scenario\": \"fig06\""), std::string::npos);
  EXPECT_NE(json.find("\"pass\": true"), std::string::npos);
  EXPECT_NE(json.find("\"layers\""), std::string::npos);
  EXPECT_NE(json.find("\"layered\""), std::string::npos);
  EXPECT_NE(json.find("\"mismatch_count\""), std::string::npos);
  EXPECT_NE(json.find("\"raters\""), std::string::npos);
  EXPECT_NE(json.find("\"max_score\""), std::string::npos);
  EXPECT_NE(json.find("\"flagged_ops\""), std::string::npos);
  for (const char* rater : {"emd", "chi2", "ops", "latency"}) {
    EXPECT_NE(json.find(std::string("\"rater\": \"") + rater + "\""),
              std::string::npos)
        << rater;
  }
}

// §5.3's calibration idea in reverse: perturb the golden by shifting every
// peak up three buckets AND tripling its mass.  The shift moves the peaks
// (EMD, Chi-square), the scaling changes the totals (total-ops,
// total-latency) -- so every rater, run alone, must flag the regression.
TEST_F(GateCommandTest, PerturbedBaselineFlaggedByEveryRater) {
  ASSERT_EQ(Run({kScenario, "--update", "--baseline=" + prefix_}), 0);
  const osprof::ProfileSet golden =
      osprof::ProfileSet::ParseString(ReadFile(prefix_ + kLayerSuffix));

  osprof::ProfileSet perturbed(golden.resolution());
  for (const auto& [name, profile] : golden) {
    const osprof::Histogram& h = profile.histogram();
    osprof::Histogram& p = perturbed[name].histogram();
    std::uint64_t recorded = 0;
    osprof::Cycles total_latency = 0;
    for (int b = 0; b < h.num_buckets(); ++b) {
      if (h.bucket(b) == 0) {
        continue;
      }
      const int shifted = std::min(b + 3, h.num_buckets() - 1);
      const std::uint64_t count = h.bucket(b) * 3;
      p.set_bucket(shifted, p.bucket(shifted) + count);
      recorded += count;
      total_latency +=
          count * osprof::BucketLowerBound(shifted, golden.resolution());
    }
    p.SetTotals(recorded, total_latency);
  }
  std::ofstream perturbed_file(perturbed_prefix_ + kLayerSuffix);
  perturbed.Serialize(perturbed_file);
  perturbed_file.close();
  // The layered golden rides along unchanged: only the profile raters
  // should fire here.
  CopyFile(prefix_ + ".layers", perturbed_prefix_ + ".layers");

  for (const char* rater : {"emd", "chi2", "ops", "latency"}) {
    EXPECT_EQ(Run({kScenario, "--baseline=" + perturbed_prefix_,
                   std::string("--raters=") + rater}),
              3)
        << "rater " << rater << " missed the perturbation\n"
        << out_.str();
    EXPECT_NE(out_.str().find("gate REGRESSION"), std::string::npos) << rater;
    EXPECT_NE(out_.str().find("flagged:"), std::string::npos) << rater;
  }

  // All four together, of course, also fail -- and the JSON says so.
  EXPECT_EQ(Run({kScenario, "--baseline=" + perturbed_prefix_,
                 "--json=" + json_path_}),
            3);
  EXPECT_NE(ReadFile(json_path_).find("\"pass\": false"), std::string::npos);
}

// The layered decomposition is scored for exactness: tampering with one
// component's cycle count in the .layers golden fails the gate even when
// every profile rater passes.  Tampering with every bucket's self cycles
// lists the first ten mismatches and counts the rest.
TEST_F(GateCommandTest, LayersDecompositionDriftFailsGate) {
  ASSERT_EQ(Run({kScenario, "--update", "--baseline=" + prefix_}), 0);
  CopyFile(prefix_ + kLayerSuffix, perturbed_prefix_ + kLayerSuffix);
  const std::string layers_text = ReadFile(prefix_ + ".layers");
  // Prepends a digit to the self cycles at or after `from`, so they
  // change; returns where the next search starts.
  const auto bump_self = [](std::string& text, std::size_t from) {
    const std::size_t pos = text.find(" self ", from);
    if (pos != std::string::npos) {
      text.insert(pos + 6, 1, '9');
    }
    return pos == std::string::npos ? pos : pos + 7;
  };
  std::string one_self = layers_text;
  ASSERT_NE(bump_self(one_self, 0), std::string::npos);
  std::ofstream(perturbed_prefix_ + ".layers") << one_self;

  EXPECT_EQ(Run({kScenario, "--baseline=" + perturbed_prefix_}), 3);
  EXPECT_NE(out_.str().find("DECOMPOSITION DRIFT"), std::string::npos);
  EXPECT_NE(out_.str().find("gate REGRESSION"), std::string::npos);

  // The JSON verdict carries the mismatch.
  EXPECT_EQ(Run({kScenario, "--baseline=" + perturbed_prefix_,
                 "--json=" + json_path_}),
            3);
  const std::string json = ReadFile(json_path_);
  EXPECT_NE(json.find("\"layered\""), std::string::npos);
  EXPECT_NE(json.find("\"mismatches\""), std::string::npos);

  // fig06 decomposes 25 buckets; the listing stops at ten.
  std::string every_self = layers_text;
  for (std::size_t from = 0; from != std::string::npos;) {
    from = bump_self(every_self, from);
  }
  std::ofstream(perturbed_prefix_ + ".layers") << every_self;
  EXPECT_EQ(Run({kScenario, "--baseline=" + perturbed_prefix_}), 3);
  EXPECT_NE(out_.str().find("(25 mismatches"), std::string::npos)
      << out_.str();
  EXPECT_NE(out_.str().find("\n  ... (15 more)\n"), std::string::npos)
      << out_.str();
}

// Two drifts every rater scores under its threshold: one more cycle of
// llseek latency (latency score 4.5e-10) and one llseek moved from bucket
// 15 to 16 (EMD 8.3e-05, threshold 0.2).  The [bytes] verdict fails both,
// naming the file and its first differing line.
TEST_F(GateCommandTest, SubThresholdGoldenDriftFailsTheBytesCheck) {
  CopyFile(kGoldenDir + kScenario + ".layers", prefix_ + ".layers");
  const std::string golden = ReadFile(kGoldenDir + kScenario + kLayerSuffix);
  struct Edit {
    std::string from, to, line;
  };
  const Edit edits[] = {
      {"total_latency=2225771590", "total_latency=2225771591", "7"},
      {"15 3108\n  bucket 16 74\n", "15 3107\n  bucket 16 75\n", "11"},
  };
  for (const auto& edit : edits) {
    std::string drifted = golden;
    drifted.replace(drifted.find(edit.from), edit.from.size(), edit.to);
    std::ofstream(prefix_ + kLayerSuffix) << drifted;
    EXPECT_EQ(Run({kScenario, "--baseline=" + prefix_}), 3);
    EXPECT_EQ(out_.str().find("flagged:"), std::string::npos) << out_.str();
    EXPECT_NE(out_.str().find("[bytes] " + prefix_ + kLayerSuffix +
                              " DIFFERS from line " + edit.line + ":\n"),
              std::string::npos)
        << out_.str();
    EXPECT_NE(out_.str().find("[bytes] " + prefix_ + ".layers identical"),
              std::string::npos);
  }
}

// A scenario that records layered data cannot gate without its .layers
// golden: profiles alone no longer prove the run matches.
TEST_F(GateCommandTest, MissingLayersBaselineExits2) {
  ASSERT_EQ(Run({kScenario, "--update", "--baseline=" + prefix_}), 0);
  std::remove((prefix_ + ".layers").c_str());
  EXPECT_EQ(Run({kScenario, "--baseline=" + prefix_}), 2);
  EXPECT_NE(err_.str().find("missing baseline"), std::string::npos);
  EXPECT_NE(err_.str().find(".layers"), std::string::npos);
}

// The committed corpus under tests/golden/ must pass for every registered
// scenario: this is the gate CI runs, checked here so `ctest` catches a
// stale or missing golden before a push does.  A passing gate proves the
// run byte-identical to its goldens, so gating with SimRace on and off
// also proves tracking costs no simulated time.  scale_1m runs in the slow
// tier (tests/CMakeLists.txt).
class GoldenCorpusTest : public ::testing::TestWithParam<std::string> {
 protected:
  // The gate's stdout; it must exit 0.
  std::string Gate(std::vector<std::string> args) {
    args.insert(args.begin(),
                {GetParam(), "--baseline=" + kGoldenDir + GetParam()});
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(RunGateCommand(args, out, err), 0) << out.str() << err.str();
    return out.str();
  }
};

// Every file the scenario owns in tests/golden (<scenario>.*) is one its
// gate compares, so no stray golden sits there unchecked.
TEST_P(GoldenCorpusTest, CommittedGoldenPasses) {
  const std::string out = Gate({});
  for (const std::string& file : ostest::GoldenFileNames()) {
    if (file.starts_with(GetParam() + ".")) {
      EXPECT_NE(out.find("[bytes] " + kGoldenDir + file + " identical\n"),
                std::string::npos)
          << "the gate does not compare tests/golden/" << file;
    }
  }
}

TEST_P(GoldenCorpusTest, CommittedGoldenPassesWithoutRaces) {
  Gate({"--no-races"});
}

// The decomposition and the flat profile record the same spans: every
// decomposed op's bucket counts are its .prof bucket counts, and its
// component cycles sum to its total latency.  Scenarios that record no
// decomposition (the noise modes) have no .layers golden to check.
TEST_P(GoldenCorpusTest, LayersAgreeWithFlatProfiles) {
  const std::string prefix = kGoldenDir + GetParam();
  const std::string layers_text = ReadFile(prefix + ".layers");
  if (layers_text.empty()) {
    return;
  }
  for (const auto& [layer, ops] : osprof::ParseLayersString(layers_text)) {
    const osprof::ProfileSet flat = osprof::ProfileSet::ParseString(
        ReadFile(prefix + "." + layer + ".prof"));
    for (const auto& [op, decomposed] : ops) {
      if (decomposed.empty()) {
        continue;
      }
      const osprof::Profile* profile = flat.Find(op);
      ASSERT_NE(profile, nullptr) << layer << " " << op;
      osprof::Cycles cycles = 0;
      for (const auto& [bucket, data] : decomposed.buckets()) {
        EXPECT_EQ(data.count, profile->histogram().bucket(bucket))
            << layer << " " << op << " bucket " << bucket;
        cycles += data.TotalCycles();
      }
      EXPECT_EQ(decomposed.total_count(), profile->total_operations())
          << layer << " " << op;
      EXPECT_EQ(cycles, profile->total_latency()) << layer << " " << op;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, GoldenCorpusTest,
                         ::testing::ValuesIn(
                             osrunner::BuiltinScenarios().Names()),
                         [](const auto& info) { return info.param; });

// ... and every file there is owned by a registered scenario.
TEST(GoldenCorpusFiles, EachBelongsToARegisteredScenario) {
  for (const std::string& file : ostest::GoldenFileNames()) {
    const std::string owner = file.substr(0, file.find('.'));
    EXPECT_NE(osrunner::BuiltinScenarios().Find(owner), nullptr)
        << "tests/golden/" << file << " belongs to no registered scenario";
  }
}

// The [races] verdict: a seeded fixture must race -- and that is its
// passing state -- a clean scenario must not, and --no-races skips the
// check while gating the identical profiles against the same goldens
// (tracking consumes no simulated time).
TEST_F(GateCommandTest, RacesVerdictCoversFixturesCleanRunsAndOptOut) {
  const std::string fixture = "race_fixture_counter";
  EXPECT_EQ(Run({fixture, "--baseline=" + kGoldenDir + fixture,
                 "--json=" + json_path_}),
            0)
      << out_.str() << err_.str();
  EXPECT_NE(out_.str().find("[races] fixture raced as designed:"),
            std::string::npos);
  const std::string json = ReadFile(json_path_);
  EXPECT_NE(json.find("\"races\""), std::string::npos);
  EXPECT_NE(json.find("\"expected\": true"), std::string::npos);
  EXPECT_NE(json.find("\"found\": true"), std::string::npos);
  EXPECT_NE(json.find("RaceIncrementOnce"), std::string::npos);

  EXPECT_EQ(Run({fixture, "--baseline=" + kGoldenDir + fixture,
                 "--no-races"}),
            0)
      << out_.str() << err_.str();
  EXPECT_NE(out_.str().find("[races] tracking disabled; skipped"),
            std::string::npos);

  EXPECT_EQ(Run({kScenario, "--baseline=" + kGoldenDir + kScenario}), 0)
      << out_.str() << err_.str();
  EXPECT_NE(out_.str().find("[races] no data races"), std::string::npos);
}

// The routine behind the [bytes] verdict and the remote fixture test
// names the first line the texts do not share, a text that ended early
// included.
TEST(FirstDifferingLine, NamesTheLineAndBothVersionsOfIt) {
  const LineDifference edited = FirstDifferingLine("a\nbc\nd\n", "a\nbx\nd\n");
  EXPECT_EQ(edited.line, 2u);
  EXPECT_EQ(edited.want, "bc");
  EXPECT_EQ(edited.got, "bx");
  const LineDifference cut = FirstDifferingLine("a\nb\n", "a\n");
  EXPECT_EQ(cut.line, 2u);
  EXPECT_EQ(cut.want, "b");
  EXPECT_EQ(cut.got, "(end of file)");
}

}  // namespace
}  // namespace ostools
