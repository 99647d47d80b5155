// `osprof_tool layers`: exit-code contract (0 ok / 1 usage error or
// unknown scenario / 2 runtime failure) and the decomposition report.

#include "src/tools/layers_command.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace ostools {
namespace {

class LayersCommandTest : public ::testing::Test {
 protected:
  int Run(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return RunLayersCommand(args, out_, err_);
  }

  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(LayersCommandTest, UsageErrors) {
  EXPECT_EQ(Run({}), 1);  // Missing scenario.
  EXPECT_NE(err_.str().find("usage:"), std::string::npos);
  EXPECT_EQ(Run({"fig06", "--no-such-flag"}), 1);
  EXPECT_NE(err_.str().find("unknown flag"), std::string::npos);
  EXPECT_EQ(Run({"fig06", "--trials=abc"}), 1);
  EXPECT_NE(err_.str().find("bad --trials value"), std::string::npos);
  EXPECT_EQ(Run({"fig06", "--trials=2x"}), 1);
  EXPECT_EQ(Run({"fig06", "--trials=0"}), 1);
  EXPECT_NE(err_.str().find("--trials must be positive"), std::string::npos);
  EXPECT_EQ(Run({"two", "scenarios"}), 1);
}

// Unlike gate and races, layers reports an unknown scenario as a usage
// error.
TEST_F(LayersCommandTest, UnknownScenarioExits1) {
  EXPECT_EQ(Run({"no_such_scenario"}), 1);
  EXPECT_NE(err_.str().find("unknown scenario 'no_such_scenario'"),
            std::string::npos);
}

TEST_F(LayersCommandTest, DecomposesEveryProfiledOp) {
  EXPECT_EQ(Run({"fig06"}), 0) << err_.str();
  const std::string text = out_.str();
  EXPECT_NE(text.find("layered decomposition over 1 trial(s) (base seed 6)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("layer fs (resolution 1)"), std::string::npos) << text;
  EXPECT_NE(text.find("  llseek\n"), std::string::npos) << text;
}

}  // namespace
}  // namespace ostools
