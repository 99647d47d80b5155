// `osprof_tool races`: exit-code contract (0 clean / 1 usage / 2 runtime
// / 3 races found), report text, and the osprof-races-v1 JSON document.

#include "src/tools/races_command.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace ostools {
namespace {

class RacesCommandTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* tmpdir = ::getenv("TMPDIR");
    const std::string tag =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    json_path_ = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                 "/osprof_races_" + tag + ".json";
  }

  void TearDown() override { std::remove(json_path_.c_str()); }

  int Run(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return RunRacesCommand(args, out_, err_);
  }

  std::string ReadJson() {
    std::ifstream in(json_path_);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  std::string json_path_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(RacesCommandTest, HelpAndUsageErrors) {
  EXPECT_EQ(Run({"--help"}), 0);
  EXPECT_NE(out_.str().find("usage:"), std::string::npos);
  EXPECT_EQ(Run({}), 1);  // Missing scenario.
  EXPECT_NE(err_.str().find("usage:"), std::string::npos);
  EXPECT_EQ(Run({"race_fixture_counter", "--no-such-flag"}), 1);
  EXPECT_EQ(Run({"race_fixture_counter", "--trials=abc"}), 1);
  EXPECT_EQ(Run({"race_fixture_counter", "--trials=2x"}), 1);
  EXPECT_EQ(Run({"race_fixture_counter", "--trials=0"}), 1);
  EXPECT_EQ(Run({"two", "scenarios"}), 1);
}

TEST_F(RacesCommandTest, UnknownScenarioIsARuntimeError) {
  EXPECT_EQ(Run({"no_such_scenario"}), 2);
  EXPECT_NE(err_.str().find("unknown scenario"), std::string::npos);
}

TEST_F(RacesCommandTest, SeededFixtureExitsThreeWithAttributedReports) {
  EXPECT_EQ(Run({"race_fixture_counter"}), 3);
  const std::string text = out_.str();
  EXPECT_NE(text.find("data race"), std::string::npos);
  // Attribution: the cell, the access site, and the profiled op.
  EXPECT_NE(text.find("fixture.cell@RaceIncrementOnce"), std::string::npos);
  EXPECT_NE(text.find("op increment"), std::string::npos);
  EXPECT_NE(text.find("shared accesses checked"), std::string::npos);
}

TEST_F(RacesCommandTest, LockedControlFixtureIsClean) {
  EXPECT_EQ(Run({"race_control_locked"}), 0);
  EXPECT_NE(out_.str().find("no data races"), std::string::npos);
}

TEST_F(RacesCommandTest, JsonDocumentCarriesTheVerdict) {
  EXPECT_EQ(Run({"race_fixture_readers", "--trials=2",
                 "--json=" + json_path_}), 3);
  const std::string doc = ReadJson();
  EXPECT_NE(doc.find("\"schema\": \"osprof-races-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"scenario\": \"race_fixture_readers\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"races_found\": true"), std::string::npos);
  EXPECT_NE(doc.find("RaceScanOnce"), std::string::npos);
  EXPECT_NE(doc.find("\"race_accesses_checked\""), std::string::npos);

  EXPECT_EQ(Run({"race_control_locked", "--json=" + json_path_}), 0);
  EXPECT_NE(ReadJson().find("\"races_found\": false"), std::string::npos);
}

TEST_F(RacesCommandTest, UnwritableJsonPathIsARuntimeError) {
  EXPECT_EQ(Run({"race_control_locked", "--json=/no/such/dir/out.json"}), 2);
  EXPECT_NE(err_.str().find("cannot write"), std::string::npos);
}

}  // namespace
}  // namespace ostools
