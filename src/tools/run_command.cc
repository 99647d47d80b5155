#include "src/tools/run_command.h"

#include <cstdio>
#include <string>

#include "src/core/clock.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "src/tools/scenario_front_end.h"

namespace ostools {
namespace {

constexpr const char* kRunUsage =
    "usage: osprof_tool run <scenario> [--trials=N] [--jobs=J] "
    "[--out=PREFIX]\n"
    "       osprof_tool run --list\n"
    "  --trials=N   independently-seeded trials to run (default 1)\n"
    "  --jobs=J     worker threads; 0 = all hardware threads (default 1)\n"
    "  --out=PREFIX write each merged layer to PREFIX.<layer>.prof, plus\n"
    "               the layered decomposition to PREFIX.layers when any\n"
    "               layer recorded one\n";

}  // namespace

int RunRunCommand(const std::vector<std::string>& args, std::ostream& out,
                  std::ostream& err) {
  ScenarioFrontEnd cmd({.name = "run",
                        .usage = kRunUsage,
                        .flags = {"--list", "--out="},
                        .stop = "--list",
                        .unknown_scenario_exit = 1,
                        .list_when_unknown = true},
                       out, err);
  if (!cmd.Parse(args)) {
    return 1;
  }
  if (cmd.flags.count("--list") != 0) {
    ListScenarios(out);
    return 0;
  }
  const std::optional<osrunner::RunResult> result = cmd.Run();
  if (!result) {
    return cmd.status;
  }
  const osrunner::Scenario* scenario = cmd.scenario;

  out << scenario->name << ": " << scenario->description << "\n";
  char line[200];
  std::snprintf(line, sizeof(line),
                "%d trial(s) on %d job(s) in %.3f s wall (base seed %llu)\n",
                result->options.trials, result->options.jobs,
                result->wall_seconds,
                static_cast<unsigned long long>(scenario->kernel.seed));
  out << line;
  for (const osrunner::TrialResult& t : result->trials) {
    std::snprintf(line, sizeof(line),
                  "  trial %d: seed %llu, %s simulated, %.3f s wall\n",
                  t.trial, static_cast<unsigned long long>(t.seed),
                  osprof::FormatSeconds(static_cast<double>(t.sim_cycles) /
                                        osprof::kPaperCpuHz)
                      .c_str(),
                  t.wall_seconds);
    out << line;
  }
  for (const auto& [layer, lr] : result->layers) {
    out << "\n[" << layer << "] merged over " << result->options.trials
        << " trial(s):\n";
    out << osrunner::RenderDispersion(lr, result->options.trials);
  }

  const std::string prefix = cmd.Value("--out=");
  if (prefix.empty()) {
    return 0;
  }
  for (const GoldenFile& file : GoldenFiles(*result)) {
    const std::string path = prefix + file.suffix;
    if (!cmd.Write(path, file.text)) {
      return 2;
    }
    out << "wrote " << path << "\n";
  }
  return 0;
}

}  // namespace ostools
