// Helpers the runner tests share.

#ifndef OSPROF_TESTS_RUNNER_RUNNER_TEST_UTIL_H_
#define OSPROF_TESTS_RUNNER_RUNNER_TEST_UTIL_H_

#include <string>

#include "gtest/gtest.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "src/tools/scenario_front_end.h"

namespace osrunner {

inline const Scenario& Builtin(const std::string& name) {
  const Scenario* s = BuiltinScenarios().Find(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

// What a run's goldens pin, as one string: every file GoldenFiles()
// writes, each after its suffix.  Two runs compare equal under it exactly
// when `osprof_tool run --out` would write byte-identical files.
inline std::string GoldenText(const RunResult& result) {
  std::string text;
  for (const ostools::GoldenFile& file : ostools::GoldenFiles(result)) {
    text += "== " + file.suffix + "\n" + file.text;
  }
  return text;
}

}  // namespace osrunner

#endif  // OSPROF_TESTS_RUNNER_RUNNER_TEST_UTIL_H_
