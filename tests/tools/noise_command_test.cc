// `osprof_tool noise`: exit-code contract (0 agrees with Equation 3 /
// 1 usage error / 2 unknown or non-noise scenario) and the Eq. 3 line.

#include "src/tools/noise_command.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace ostools {
namespace {

class NoiseCommandTest : public ::testing::Test {
 protected:
  int Run(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return RunNoiseCommand(args, out_, err_);
  }

  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(NoiseCommandTest, HelpAndUsageErrors) {
  EXPECT_EQ(Run({"--help"}), 0);
  EXPECT_NE(out_.str().find("usage:"), std::string::npos);
  EXPECT_EQ(Run({"--no-such-flag"}), 1);
  EXPECT_NE(err_.str().find("unknown flag"), std::string::npos);
  EXPECT_EQ(Run({"noise", "noise_idle"}), 1);
  EXPECT_NE(err_.str().find("usage:"), std::string::npos);
}

TEST_F(NoiseCommandTest, UnknownScenarioExits2) {
  EXPECT_EQ(Run({"no_such_scenario"}), 2);
  EXPECT_NE(err_.str().find("unknown scenario 'no_such_scenario'"),
            std::string::npos);
}

TEST_F(NoiseCommandTest, NonNoiseScenarioExits2) {
  EXPECT_EQ(Run({"fig07"}), 2);
  EXPECT_NE(err_.str().find("not a noise workload"), std::string::npos);
}

// The default scenario oversubscribes 2 CPUs with 4 tasks, so Equation 3
// predicts 4 x 4000 x 98304 / 2^20 = 1500 forced preemptions.
TEST_F(NoiseCommandTest, DefaultScenarioAgreesWithEquation3) {
  EXPECT_EQ(Run({}), 0) << err_.str();
  const std::string text = out_.str();
  EXPECT_NE(text.find("Eq.3: predicted 1500.0 forced preemptions (bucket 20)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("%AVAIL"), std::string::npos) << text;
}

}  // namespace
}  // namespace ostools
