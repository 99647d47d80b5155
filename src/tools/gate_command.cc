#include "src/tools/gate_command.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/compare.h"
#include "src/core/jsonw.h"
#include "src/core/layered.h"
#include "src/core/parse_number.h"
#include "src/core/profile.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "src/tools/scenario_front_end.h"

namespace ostools {
namespace {

constexpr const char* kGateUsage =
    "usage: osprof_tool gate <scenario> [--baseline=PREFIX]\n"
    "                        [--raters=emd,chi2,ops,latency]\n"
    "                        [--threshold=X] [--trials=N] [--jobs=J]\n"
    "                        [--json=FILE] [--update]\n"
    "       osprof_tool gate --list\n"
    "  --baseline=PREFIX  golden files PREFIX.<layer>.prof and the layered\n"
    "                     decomposition PREFIX.layers (default\n"
    "                     tests/golden/<scenario>)\n"
    "  --raters=...       comma list of emd, chi2, ops, latency (default\n"
    "                     all four)\n"
    "  --threshold=X      override every rater's default threshold\n"
    "                     (--raters and --threshold shape the analysis\n"
    "                     printed, not the [bytes] verdict)\n"
    "  --trials=N         runner trials; must match how the golden was\n"
    "                     generated (default 1)\n"
    "  --jobs=J           worker threads (does not affect merged output)\n"
    "  --json=FILE        write the machine-readable verdict to FILE\n"
    "  --no-races         disable SimRace happens-before tracking (the\n"
    "                     goldens are byte-identical either way; this skips\n"
    "                     the [races] verdict)\n"
    "  --update           regenerate the golden files from this run\n";

// The §5.3 raters the gate scores with, by their CLI spelling, in the
// default order.
struct Rater {
  const char* name;
  osprof::CompareMethod method;
};
constexpr Rater kRaters[] = {
    {"emd", osprof::CompareMethod::kEarthMovers},
    {"chi2", osprof::CompareMethod::kChiSquare},
    {"ops", osprof::CompareMethod::kTotalOps},
    {"latency", osprof::CompareMethod::kTotalLatency},
};

// The rater list and threshold override from the gate's own flags;
// nullopt after printing a usage error.
struct Scoring {
  std::vector<Rater> raters;
  std::optional<double> threshold;  // Unset: each rater's own default.
};

std::optional<Scoring> ParseScoring(const ScenarioFrontEnd& cmd) {
  Scoring scoring;
  for (const std::string& list : cmd.Values("--raters=")) {
    std::stringstream tokens(list);
    std::string token;
    while (std::getline(tokens, token, ',')) {
      const Rater* rater = std::find_if(
          std::begin(kRaters), std::end(kRaters),
          [&token](const Rater& r) { return token == r.name; });
      if (rater == std::end(kRaters)) {
        cmd.err << "osprof_tool gate: unknown rater '" << token
                << "' (raters: emd, chi2, ops, latency)\n";
        return std::nullopt;
      }
      scoring.raters.push_back(*rater);
    }
  }
  if (scoring.raters.empty()) {
    scoring.raters.assign(std::begin(kRaters), std::end(kRaters));
  }
  // The whole token must be a finite number >= 0 ("0.5x", "-3" and "nan"
  // are rejected).
  for (const std::string& value : cmd.Values("--threshold=")) {
    const std::optional<double> threshold = osprof::ParseNumber<double>(value);
    if (!threshold || !std::isfinite(*threshold) || *threshold < 0.0) {
      cmd.err << "osprof_tool gate: bad --threshold value '" << value
              << "'\n";
      return std::nullopt;
    }
    scoring.threshold = threshold;
  }
  return scoring;
}

// One gate verdict: the block it prints and the member it adds to the
// JSON document under `key`.  The gate prints and serializes its checks
// in one order, and passes only when every check does.
struct Check {
  std::string key;
  bool pass = false;
  std::string text;
  osjson::Value json;
};

// Each entry on its own two-space-indented line.
std::string Indented(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += "  " + line + "\n";
  }
  return text;
}

// A deadlock-capable acquisition-order cycle in any trial fails the gate
// even when every profile rater passes.
Check LockOrderCheck(const std::vector<std::string>& cycles) {
  osjson::Value json = osjson::Value::Object();
  json.Set("deadlock_capable", osjson::Value::Bool(!cycles.empty()));
  json.Set("cycles", osjson::Value::Strings(cycles));
  return {"lock_order", cycles.empty(),
          cycles.empty() ? "[lock-order] no deadlock-capable cycles\n"
                         : "[lock-order] DEADLOCK-CAPABLE lock graph:\n" +
                               Indented(cycles),
          std::move(json)};
}

// The SimRace verdict (src/sim/race_tracker.h).  Ordinary scenarios must
// come back race-free; a seeded race fixture (any RaceFixtureSpec but the
// locked control) must race -- that is the gate's true-positive check on
// the detector itself.  Unchecked under --no-races and on untracked
// scenarios.
Check RacesCheck(const osrunner::Scenario& scenario, bool track_races,
                 const std::vector<std::string>& reports) {
  const bool checked = scenario.track_races && track_races;
  const auto* fixture =
      std::get_if<osrunner::RaceFixtureSpec>(&scenario.workload);
  const bool expected =
      fixture != nullptr &&
      fixture->kind != osrunner::RaceFixtureSpec::Kind::kLockedControl;
  const bool found = !reports.empty();
  const bool pass = !checked || found == expected;
  std::string text;
  if (!checked) {
    text = "[races] tracking disabled; skipped\n";
  } else if (expected) {
    text = found ? "[races] fixture raced as designed:\n" + Indented(reports)
                 : "[races] FIXTURE SILENT: expected data races, found "
                   "none\n";
  } else {
    text = found ? "[races] DATA RACES:\n" + Indented(reports)
                 : "[races] no data races\n";
  }
  osjson::Value json = osjson::Value::Object();
  json.Set("checked", osjson::Value::Bool(checked));
  json.Set("expected", osjson::Value::Bool(expected));
  json.Set("found", osjson::Value::Bool(found));
  json.Set("reports", osjson::Value::Strings(reports));
  json.Set("pass", osjson::Value::Bool(pass));
  return {"races", pass, std::move(text), std::move(json)};
}

// Every rater scores each layer's merged profiles against that layer's
// golden; a rater's interesting pairs are its regressions.
Check LayersCheck(const osrunner::RunResult& result,
                  const std::map<std::string, osprof::ProfileSet>& golden,
                  const std::string& prefix, const Scoring& scoring) {
  bool pass = true;
  std::string text;
  osjson::Value json = osjson::Value::Array();
  for (const auto& [layer, lr] : result.layers) {
    const std::string path = prefix + "." + layer + ".prof";
    const osprof::ProfileSet& gset = golden.at(layer);
    text += "[" + layer + "] golden " +
            std::to_string(gset.TotalOperations()) + " ops vs measured " +
            std::to_string(lr.merged.TotalOperations()) + " ops (" + path +
            ")\n";
    bool layer_pass = true;
    osjson::Value raters = osjson::Value::Array();
    for (const Rater& rater : scoring.raters) {
      osprof::AnalysisOptions options;
      options.method = rater.method;
      options.score_threshold =
          scoring.threshold.value_or(osprof::DefaultThreshold(rater.method));
      const osprof::AnalysisReport analysis =
          osprof::CompareProfileSets(gset, lr.merged, options);
      double max_score = 0.0;
      std::vector<std::string> flagged;
      for (const osprof::PairReport& pair : analysis.pairs) {
        max_score = std::max(max_score, pair.score);
        if (pair.interesting) {
          flagged.push_back(pair.op_name);
        }
      }
      const std::string method = osprof::CompareMethodName(rater.method);
      char line[256];
      std::snprintf(line, sizeof(line),
                    "  %-8s (%-13s) threshold %-7.3g max score %-9.4g %s\n",
                    rater.name, method.c_str(), options.score_threshold,
                    max_score, flagged.empty() ? "PASS" : "REGRESSION");
      text += line;
      for (const std::string& op : flagged) {
        text += "           flagged: " + op + "\n";
      }
      layer_pass = layer_pass && flagged.empty();
      osjson::Value entry = osjson::Value::Object();
      entry.Set("rater", osjson::Value::Str(rater.name));
      entry.Set("method", osjson::Value::Str(method));
      entry.Set("threshold", osjson::Value::Double(options.score_threshold));
      entry.Set("max_score", osjson::Value::Double(max_score));
      entry.Set("flagged_ops", osjson::Value::Strings(flagged));
      entry.Set("pass", osjson::Value::Bool(flagged.empty()));
      raters.Append(std::move(entry));
    }
    pass = pass && layer_pass;
    osjson::Value l = osjson::Value::Object();
    l.Set("layer", osjson::Value::Str(layer));
    l.Set("baseline", osjson::Value::Str(path));
    l.Set("golden_ops", osjson::Value::Uint(gset.TotalOperations()));
    l.Set("measured_ops", osjson::Value::Uint(lr.merged.TotalOperations()));
    l.Set("pass", osjson::Value::Bool(layer_pass));
    l.Set("raters", std::move(raters));
    json.Append(std::move(l));
  }
  return {"layers", pass, std::move(text), std::move(json)};
}

double RelDiff(std::uint64_t a, std::uint64_t b) {
  if (a == b) {
    return 0.0;
  }
  const std::uint64_t hi = std::max(a, b);
  const std::uint64_t diff = a > b ? a - b : b - a;
  return static_cast<double>(diff) / static_cast<double>(hi);
}

using LayeredSets = std::map<std::string, osprof::LayeredProfileSet>;

// The exact-decomposition verdict: the sim is deterministic, so the merged
// layered decomposition must reproduce the committed `.layers` golden to
// the cycle.  Scored as relative differences so the JSON stays informative
// when drift does happen.  Unchecked when no layer recorded a
// decomposition.
Check LayeredCheck(const LayeredSets& golden, const LayeredSets& measured,
                   const std::string& path) {
  const bool checked = !measured.empty();
  std::uint64_t mismatch_total = 0;
  double max_rel_diff = 0.0;
  std::vector<std::string> mismatches;  // Listing capped at 10 entries.
  auto note = [&](std::string msg, double rel) {
    ++mismatch_total;
    max_rel_diff = std::max(max_rel_diff, rel);
    if (mismatches.size() < 10) {
      mismatches.push_back(std::move(msg));
    }
  };
  for (const auto& [layer, gset] : golden) {
    if (measured.find(layer) == measured.end()) {
      note("layer " + layer + " only in golden", 1.0);
    }
  }
  for (const auto& [layer, mset] : measured) {
    const auto git = golden.find(layer);
    if (git == golden.end()) {
      note("layer " + layer + " only in measured", 1.0);
      continue;
    }
    const osprof::LayeredProfileSet& gset = git->second;
    for (const auto& [op, gprofile] : gset) {
      if (!gprofile.empty() && mset.Find(op) == nullptr) {
        note(layer + "/" + op + " only in golden", 1.0);
      }
    }
    for (const auto& [op, mprofile] : mset) {
      if (mprofile.empty()) {
        continue;
      }
      const osprof::LayeredProfile* gprofile = gset.Find(op);
      if (gprofile == nullptr) {
        note(layer + "/" + op + " only in measured", 1.0);
        continue;
      }
      // Union of the sparse bucket keys, compared field by field.  Both
      // views are materialized by value (LayeredProfile::buckets() returns
      // a temporary map).
      std::map<int, osprof::LayeredBucket> gb = gprofile->buckets();
      for (const auto& [bucket, mdata] : mprofile.buckets()) {
        const std::string where =
            layer + "/" + op + " bucket " + std::to_string(bucket);
        const auto bit = gb.find(bucket);
        if (bit == gb.end()) {
          note(where + " only in measured", 1.0);
          continue;
        }
        const osprof::LayeredBucket gdata = bit->second;
        gb.erase(bit);
        if (gdata.count != mdata.count) {
          note(where + ": count " + std::to_string(gdata.count) + " vs " +
                   std::to_string(mdata.count),
               RelDiff(gdata.count, mdata.count));
        }
        for (int c = 0; c < osprof::kNumLayerComponents; ++c) {
          if (gdata.cycles[c] != mdata.cycles[c]) {
            note(where + ": " +
                     osprof::LayerComponentName(
                         static_cast<osprof::LayerComponent>(c)) +
                     " " + std::to_string(gdata.cycles[c]) + " vs " +
                     std::to_string(mdata.cycles[c]),
                 RelDiff(gdata.cycles[c], mdata.cycles[c]));
          }
        }
      }
      for (const auto& [bucket, gdata] : gb) {
        note(layer + "/" + op + " bucket " + std::to_string(bucket) +
                 " only in golden",
             1.0);
      }
    }
  }
  const bool pass = mismatch_total == 0;
  std::string text;
  if (!checked) {
    text = "[layers] no layered data recorded; skipped\n";
  } else if (pass) {
    text = "[layers] decomposition matches " + path + " exactly\n";
  } else {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "[layers] DECOMPOSITION DRIFT vs %s (%llu mismatches, "
                  "max rel diff %.4g):\n",
                  path.c_str(),
                  static_cast<unsigned long long>(mismatch_total),
                  max_rel_diff);
    text = line + Indented(mismatches);
    if (mismatch_total > mismatches.size()) {
      text += "  ... (" + std::to_string(mismatch_total - mismatches.size()) +
              " more)\n";
    }
  }
  osjson::Value json = osjson::Value::Object();
  json.Set("checked", osjson::Value::Bool(checked));
  json.Set("baseline", osjson::Value::Str(path));
  json.Set("pass", osjson::Value::Bool(pass));
  json.Set("max_rel_diff", osjson::Value::Double(max_rel_diff));
  json.Set("mismatch_count", osjson::Value::Uint(mismatch_total));
  json.Set("mismatches", osjson::Value::Strings(mismatches));
  return {"layered", pass, std::move(text), std::move(json)};
}

// Equation 3 (§3.3) on noise scenarios: the measured forced-preemption
// count must agree with the model's prediction from the sample budget.
// Unchecked on every other workload.
Check NoiseCheck(const osrunner::Scenario& scenario, int trials,
                 const osrunner::RunResult& result) {
  const auto* spec = std::get_if<osrunner::NoiseSpec>(&scenario.workload);
  const bool checked = spec != nullptr;
  osrunner::Equation3Check e;
  if (checked) {
    e = osrunner::CheckEquation3(scenario, *spec, trials,
                                 result.TotalCounter("noise_preemptions"));
  }
  const bool pass = !checked || e.pass();
  std::string text;
  if (checked) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "[noise] Eq.3 predicted %.1f forced preemptions, measured "
                  "%.0f (rel err %.4f, tolerance %.2f) %s\n",
                  e.predicted, e.measured, e.rel_err, e.tolerance,
                  pass ? "PASS" : "REGRESSION");
    text = line;
  }
  osjson::Value json = osjson::Value::Object();
  json.Set("checked", osjson::Value::Bool(checked));
  json.Set("predicted_preemptions", osjson::Value::Double(e.predicted));
  json.Set("measured_preemptions", osjson::Value::Double(e.measured));
  json.Set("rel_err", osjson::Value::Double(e.rel_err));
  json.Set("tolerance", osjson::Value::Double(e.tolerance));
  json.Set("pass", osjson::Value::Bool(pass));
  return {"noise", pass, std::move(text), std::move(json)};
}

// The exactness verdict: each golden file must hold exactly the bytes this
// run writes for it under --update.  The sim is deterministic, so any
// difference is drift, however small a distance the raters score it at;
// a differing file names its first differing line.
Check BytesCheck(const std::vector<GoldenFile>& files,
                 const std::vector<std::string>& golden,
                 const std::string& prefix) {
  std::string text;
  std::vector<std::string> differing;  // "PATH:LINE" per differing file.
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string path = prefix + files[i].suffix;
    const std::string& want = golden[i];
    const std::string& got = files[i].text;
    if (want == got) {
      text += "[bytes] " + path + " identical\n";
      continue;
    }
    const LineDifference diff = FirstDifferingLine(want, got);
    const std::string line = std::to_string(diff.line);
    differing.push_back(path + ":" + line);
    text += "[bytes] " + path + " DIFFERS from line " + line + ":\n";
    text += "  golden:   " + diff.want + "\n";
    text += "  measured: " + diff.got + "\n";
  }
  osjson::Value json = osjson::Value::Object();
  json.Set("pass", osjson::Value::Bool(differing.empty()));
  json.Set("differing", osjson::Value::Strings(differing));
  return {"bytes", differing.empty(), std::move(text), std::move(json)};
}

}  // namespace

int RunGateCommand(const std::vector<std::string>& args, std::ostream& out,
                   std::ostream& err) {
  ScenarioFrontEnd cmd({.name = "gate",
                        .usage = kGateUsage,
                        .flags = {"--list", "--update", "--no-races",
                                  "--baseline=", "--json=", "--raters=",
                                  "--threshold="},
                        .stop = "",
                        .unknown_scenario_exit = 2,
                        .list_when_unknown = false},
                       out, err);
  if (!cmd.Parse(args)) {
    return 1;
  }
  const std::optional<Scoring> scoring = ParseScoring(cmd);
  if (!scoring) {
    return 1;
  }
  if (cmd.flags.count("--list") != 0) {
    for (const std::string& name : osrunner::BuiltinScenarios().Names()) {
      out << "  " << name << "\n";
    }
    return 0;
  }
  // --no-races runs the identical scenario with SimRace off: the goldens
  // are byte-identical either way (GoldenCorpusTest gates both).
  const bool track_races = cmd.flags.count("--no-races") == 0;
  const std::optional<osrunner::RunResult> run =
      cmd.Run([track_races](osrunner::Scenario& s) {
        s.track_races = s.track_races && track_races;
      });
  if (!run) {
    return cmd.status;
  }
  const osrunner::RunResult& result = *run;
  const osrunner::Scenario* scenario = cmd.scenario;
  const std::string& name = cmd.scenario_name;
  const int trials = cmd.options.trials;
  std::string prefix = cmd.Value("--baseline=");
  if (prefix.empty()) {
    prefix = "tests/golden/" + name;
  }

  const std::vector<GoldenFile> files = GoldenFiles(result);
  if (cmd.flags.count("--update") != 0) {
    for (const GoldenFile& file : files) {
      const std::string path = prefix + file.suffix;
      if (!cmd.Write(path, file.text)) {
        return 2;
      }
      out << "updated " << path << " (" << file.entries << " " << file.unit
          << ", trials=" << trials << ")\n";
    }
    return 0;
  }

  // Every golden is read once, and parsed from that same text, before any
  // check runs: a missing or corrupt one exits 2 with nothing printed.
  std::vector<std::string> golden_text;
  std::map<std::string, osprof::ProfileSet> golden;
  LayeredSets golden_layers;
  for (const GoldenFile& file : files) {
    const std::string path = prefix + file.suffix;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      err << "osprof_tool gate: missing baseline " << path
          << " (generate it with: osprof_tool gate " << name
          << " --baseline=" << prefix << " --trials=" << trials
          << " --update)\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    golden_text.push_back(text.str());
    try {
      if (file.layer.empty()) {
        golden_layers = osprof::ParseLayersString(golden_text.back());
      } else {
        golden.emplace(file.layer,
                       osprof::ProfileSet::ParseString(golden_text.back()));
      }
    } catch (const std::exception& e) {
      err << "osprof_tool gate: corrupt baseline " << path << ": "
          << e.what() << "\n";
      return 2;
    }
  }

  Check checks[] = {
      LockOrderCheck(result.LockCycles()),
      RacesCheck(*scenario, track_races, result.RaceReports()),
      LayersCheck(result, golden, prefix, *scoring),
      LayeredCheck(golden_layers, MergedLayers(result), prefix + ".layers"),
      NoiseCheck(*scenario, trials, result),
      BytesCheck(files, golden_text, prefix),
  };
  const bool pass = std::all_of(std::begin(checks), std::end(checks),
                                [](const Check& c) { return c.pass; });
  out << "gate " << name << ": " << scenario->description << "\n";
  for (const Check& check : checks) {
    out << check.text;
  }
  out << (pass ? "gate PASS" : "gate REGRESSION") << "\n";

  osjson::Value doc = osjson::Value::Object();
  doc.Set("schema", osjson::Value::Str("osprof-gate-v1"));
  doc.Set("scenario", osjson::Value::Str(name));
  doc.Set("baseline", osjson::Value::Str(prefix));
  doc.Set("trials", osjson::Value::Int(trials));
  doc.Set("pass", osjson::Value::Bool(pass));
  for (Check& check : checks) {
    doc.Set(check.key, std::move(check.json));
  }
  if (!cmd.WriteFlagFile("--json=", doc.Dump())) {
    return 2;
  }
  return pass ? 0 : 3;
}

}  // namespace ostools
