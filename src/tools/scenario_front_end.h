// The front end the scenario commands (run, gate, layers, races) share:
// one argument loop, one scenario lookup, one run-and-catch and one file
// writer.  Where the commands differ is data in their ScenarioCommandSpec.

#ifndef OSPROF_SRC_TOOLS_SCENARIO_FRONT_END_H_
#define OSPROF_SRC_TOOLS_SCENARIO_FRONT_END_H_

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/layered.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"

namespace ostools {

struct ScenarioCommandSpec {
  std::string name;   // The subcommand; prefixes every message.
  const char* usage;  // Printed on a usage error.
  // The command's own flags: "--x=" takes a value, "--x" is a switch.
  std::vector<std::string> flags;
  std::string stop;  // A switch that ends the argument loop ("" for none).
  int unknown_scenario_exit;  // The exit code for an unknown name.
  bool list_when_unknown;     // Also name the registered scenarios.
};

struct ScenarioFrontEnd {
  ScenarioFrontEnd(ScenarioCommandSpec spec, std::ostream& out,
                   std::ostream& err);

  // The spec's flags, --trials/--jobs (strict integers) and at most one
  // positional scenario name.  False after printing a usage error.
  bool Parse(const std::vector<std::string>& args);
  // Every value `flag` was given, in order; Value() is the last, or "".
  const std::vector<std::string>& Values(const std::string& flag) const;
  std::string Value(const std::string& flag) const;

  // Looks the scenario up and runs it, after `adjust` edits a copy.  On
  // nullopt the reason is printed and `status` is the exit code.
  std::optional<osrunner::RunResult> Run(
      const std::function<void(osrunner::Scenario&)>& adjust = {});

  // Writes `text` to the file that `flag` names, if it was given, and
  // reports it.
  bool WriteFlagFile(const std::string& flag, const std::string& text) const;
  // Writes `text` to `path`; false after printing that it cannot.
  bool Write(const std::string& path, const std::string& text) const;

  ScenarioCommandSpec spec;
  std::ostream& out;
  std::ostream& err;
  std::string scenario_name;
  osrunner::RunOptions options;
  // The spec's flags as given: every value in order ("" for a switch).
  std::map<std::string, std::vector<std::string>> flags;
  const osrunner::Scenario* scenario = nullptr;  // Set by Run().
  int status = 1;
};

// "  <name> <description>" for every registered scenario.
void ListScenarios(std::ostream& out);

// One file of a run's golden set: PREFIX + suffix holds exactly `text`.
struct GoldenFile {
  std::string layer;    // The profiled layer; "" for the decomposition.
  std::string suffix;   // ".<layer>.prof", or ".layers".
  std::string text;     // The file's exact bytes.
  std::size_t entries;  // Profiles or decomposed layers, for messages.
  const char* unit;     // What `entries` counts: "ops" or "layers".
};

// PREFIX.<layer>.prof per merged layer, then PREFIX.layers when any layer
// recorded a decomposition.  `run --out` and `gate --update` write these
// files, and the gate requires the goldens to hold exactly these bytes.
std::vector<GoldenFile> GoldenFiles(const osrunner::RunResult& result);

// The merged layered decomposition of every layer that recorded one.
std::map<std::string, osprof::LayeredProfileSet> MergedLayers(
    const osrunner::RunResult& result);

// Where two texts that differ first part: the 1-based number of the first
// line they do not share, and that line of each, without its newline
// ("(end of file)" past a text's end).
struct LineDifference {
  std::size_t line = 0;
  std::string want;
  std::string got;
};
LineDifference FirstDifferingLine(const std::string& want,
                                  const std::string& got);

}  // namespace ostools

#endif  // OSPROF_SRC_TOOLS_SCENARIO_FRONT_END_H_
