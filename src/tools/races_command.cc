#include "src/tools/races_command.h"

#include <optional>
#include <string>
#include <utility>

#include "src/core/jsonw.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "src/tools/scenario_front_end.h"

namespace ostools {
namespace {

constexpr const char* kRacesUsage =
    "usage: osprof_tool races <scenario> [--trials=N] [--jobs=J]\n"
    "                         [--json=FILE]\n"
    "  Runs the scenario with SimRace happens-before tracking and prints\n"
    "  every data race observed (deduplicated across trials).  Tracking\n"
    "  consumes no simulated time, so profiles match the untracked run\n"
    "  byte for byte.  Exit code 3 means races were found; the seeded\n"
    "  race_fixture_* scenarios exist to produce exactly that.\n"
    "  --trials=N   independently seeded trials (default 1)\n"
    "  --jobs=J     worker threads (does not affect the report)\n"
    "  --json=FILE  write the osprof-races-v1 document to FILE\n";

}  // namespace

int RunRacesCommand(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err) {
  ScenarioFrontEnd cmd({.name = "races",
                        .usage = kRacesUsage,
                        .flags = {"--help", "--json="},
                        .stop = "--help",
                        .unknown_scenario_exit = 2,
                        .list_when_unknown = false},
                       out, err);
  if (!cmd.Parse(args)) {
    return 1;
  }
  if (cmd.flags.count("--help") != 0) {
    out << kRacesUsage;
    return 0;
  }
  if (cmd.options.trials <= 0) {
    err << kRacesUsage;
    return 1;
  }
  const std::optional<osrunner::RunResult> result =
      cmd.Run([](osrunner::Scenario& s) { s.track_races = true; });
  if (!result) {
    return cmd.status;
  }
  const osrunner::Scenario* scenario = cmd.scenario;

  const std::vector<std::string> reports = result->RaceReports();
  out << scenario->name << ": " << scenario->description << "\n";
  out << result->options.trials << " trial(s), "
      << result->TotalCounter("race_accesses_checked")
      << " shared accesses checked across "
      << result->TotalCounter("race_cells_tracked") << " cell(s)\n";
  if (reports.empty()) {
    out << "no data races\n";
  } else {
    out << reports.size() << " data race(s):\n";
    for (const std::string& report : reports) {
      out << "  " << report << "\n";
    }
  }

  if (cmd.flags.count("--json=") != 0) {
    osjson::Value doc = osjson::Value::Object();
    doc.Set("schema", osjson::Value::Str("osprof-races-v1"));
    doc.Set("scenario", osjson::Value::Str(scenario->name));
    doc.Set("trials", osjson::Value::Int(result->options.trials));
    doc.Set("races_found", osjson::Value::Bool(!reports.empty()));
    doc.Set("reports", osjson::Value::Strings(reports));
    osjson::Value counters = osjson::Value::Object();
    for (const char* name : {"race_reports", "race_racy_accesses",
                             "race_accesses_checked", "race_cells_tracked"}) {
      counters.Set(name, osjson::Value::Uint(result->TotalCounter(name)));
    }
    doc.Set("counters", std::move(counters));
    if (!cmd.WriteFlagFile("--json=", doc.Dump())) {
      return 2;
    }
  }
  return reports.empty() ? 0 : 3;
}

}  // namespace ostools
