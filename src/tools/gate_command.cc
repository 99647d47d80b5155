#include "src/tools/gate_command.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
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
    "  --trials=N         runner trials; must match how the golden was\n"
    "                     generated (default 1)\n"
    "  --jobs=J           worker threads (does not affect merged output)\n"
    "  --json=FILE        write the machine-readable verdict to FILE\n"
    "  --no-races         disable SimRace happens-before tracking (profiles\n"
    "                     are byte-identical either way; this skips the\n"
    "                     [races] verdict)\n"
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
  double threshold = -1.0;  // < 0 -> per-method default.
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
  for (const std::string& value : cmd.Values("--threshold=")) {
    try {
      scoring.threshold = std::stod(value);
    } catch (const std::exception&) {
      cmd.err << "osprof_tool gate: bad --threshold value '" << value
              << "'\n";
      return std::nullopt;
    }
  }
  return scoring;
}

// One rater's verdict on one layer.
struct RaterVerdict {
  std::string rater;
  std::string method;
  double threshold = 0.0;
  double max_score = 0.0;
  std::vector<std::string> flagged_ops;  // Interesting pairs = regressions.
  bool pass() const { return flagged_ops.empty(); }
};

RaterVerdict ScoreLayer(const Rater& rater, double threshold_override,
                        const osprof::ProfileSet& golden,
                        const osprof::ProfileSet& measured) {
  osprof::AnalysisOptions options;
  options.method = rater.method;
  options.score_threshold = threshold_override >= 0.0
                                ? threshold_override
                                : osprof::DefaultThreshold(rater.method);
  const osprof::AnalysisReport analysis =
      osprof::CompareProfileSets(golden, measured, options);
  RaterVerdict verdict;
  verdict.rater = rater.name;
  verdict.method = osprof::CompareMethodName(rater.method);
  verdict.threshold = options.score_threshold;
  for (const osprof::PairReport& pair : analysis.pairs) {
    if (pair.score > verdict.max_score) {
      verdict.max_score = pair.score;
    }
    if (pair.interesting) {
      verdict.flagged_ops.push_back(pair.op_name);
    }
  }
  return verdict;
}

struct LayerVerdict {
  std::string layer;
  std::string baseline_path;
  std::uint64_t golden_ops = 0;
  std::uint64_t measured_ops = 0;
  std::vector<RaterVerdict> raters;
  bool pass() const {
    for (const RaterVerdict& r : raters) {
      if (!r.pass()) {
        return false;
      }
    }
    return true;
  }
};

// The exact-decomposition verdict: the sim is deterministic, so the merged
// layered decomposition must reproduce the committed `.layers` golden to
// the cycle.  Scored as relative differences so the JSON stays informative
// when drift does happen.
struct LayersVerdict {
  bool checked = false;          // False when no layer recorded one.
  std::string baseline_path;
  double max_rel_diff = 0.0;
  std::uint64_t mismatch_total = 0;
  std::vector<std::string> mismatches;  // Listing capped at 10 entries.
  bool pass() const { return mismatch_total == 0; }
};

double RelDiff(std::uint64_t a, std::uint64_t b) {
  if (a == b) {
    return 0.0;
  }
  const std::uint64_t hi = std::max(a, b);
  const std::uint64_t diff = a > b ? a - b : b - a;
  return static_cast<double>(diff) / static_cast<double>(hi);
}

LayersVerdict ScoreLayersDecomposition(
    const std::map<std::string, osprof::LayeredProfileSet>& golden,
    const std::map<std::string, osprof::LayeredProfileSet>& measured,
    std::string baseline_path) {
  LayersVerdict v;
  v.checked = true;
  v.baseline_path = std::move(baseline_path);
  auto note = [&v](std::string msg, double rel) {
    ++v.mismatch_total;
    v.max_rel_diff = std::max(v.max_rel_diff, rel);
    if (v.mismatches.size() < 10) {
      v.mismatches.push_back(std::move(msg));
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
  return v;
}

// The SimRace verdict (src/sim/race_tracker.h).  Ordinary scenarios must
// come back race-free; a seeded race fixture (any RaceFixtureSpec but the
// locked control) must race -- that is the gate's true-positive check on
// the detector itself.
struct RacesVerdict {
  bool checked = false;   // False under --no-races / untracked scenarios.
  bool expected = false;  // A seeded fixture: races are the point.
  std::vector<std::string> reports;
  bool pass() const {
    if (!checked) {
      return true;
    }
    return expected ? !reports.empty() : reports.empty();
  }
};

osjson::Value VerdictJson(const std::string& scenario,
                          const std::string& baseline_prefix, int trials,
                          const std::vector<LayerVerdict>& layers,
                          const LayersVerdict& layered,
                          const std::optional<osrunner::Equation3Check>& noise,
                          const std::vector<std::string>& lock_cycles,
                          const RacesVerdict& races, bool pass) {
  osjson::Value doc = osjson::Value::Object();
  doc.Set("schema", osjson::Value::Str("osprof-gate-v1"));
  doc.Set("scenario", osjson::Value::Str(scenario));
  doc.Set("baseline", osjson::Value::Str(baseline_prefix));
  doc.Set("trials", osjson::Value::Int(trials));
  doc.Set("pass", osjson::Value::Bool(pass));
  osjson::Value lock_order = osjson::Value::Object();
  lock_order.Set("deadlock_capable", osjson::Value::Bool(!lock_cycles.empty()));
  lock_order.Set("cycles", osjson::Value::Strings(lock_cycles));
  doc.Set("lock_order", std::move(lock_order));
  osjson::Value races_obj = osjson::Value::Object();
  races_obj.Set("checked", osjson::Value::Bool(races.checked));
  races_obj.Set("expected", osjson::Value::Bool(races.expected));
  races_obj.Set("found", osjson::Value::Bool(!races.reports.empty()));
  races_obj.Set("reports", osjson::Value::Strings(races.reports));
  races_obj.Set("pass", osjson::Value::Bool(races.pass()));
  doc.Set("races", std::move(races_obj));
  osjson::Value layer_array = osjson::Value::Array();
  for (const LayerVerdict& layer : layers) {
    osjson::Value l = osjson::Value::Object();
    l.Set("layer", osjson::Value::Str(layer.layer));
    l.Set("baseline", osjson::Value::Str(layer.baseline_path));
    l.Set("golden_ops", osjson::Value::Uint(layer.golden_ops));
    l.Set("measured_ops", osjson::Value::Uint(layer.measured_ops));
    l.Set("pass", osjson::Value::Bool(layer.pass()));
    osjson::Value rater_array = osjson::Value::Array();
    for (const RaterVerdict& r : layer.raters) {
      osjson::Value entry = osjson::Value::Object();
      entry.Set("rater", osjson::Value::Str(r.rater));
      entry.Set("method", osjson::Value::Str(r.method));
      entry.Set("threshold", osjson::Value::Double(r.threshold));
      entry.Set("max_score", osjson::Value::Double(r.max_score));
      entry.Set("flagged_ops", osjson::Value::Strings(r.flagged_ops));
      entry.Set("pass", osjson::Value::Bool(r.pass()));
      rater_array.Append(std::move(entry));
    }
    l.Set("raters", std::move(rater_array));
    layer_array.Append(std::move(l));
  }
  doc.Set("layers", std::move(layer_array));
  osjson::Value ld = osjson::Value::Object();
  ld.Set("checked", osjson::Value::Bool(layered.checked));
  ld.Set("baseline", osjson::Value::Str(layered.baseline_path));
  ld.Set("pass", osjson::Value::Bool(layered.pass()));
  ld.Set("max_rel_diff", osjson::Value::Double(layered.max_rel_diff));
  ld.Set("mismatch_count", osjson::Value::Uint(layered.mismatch_total));
  ld.Set("mismatches", osjson::Value::Strings(layered.mismatches));
  doc.Set("layered", std::move(ld));
  osjson::Value nv = osjson::Value::Object();
  const osrunner::Equation3Check eq3 =
      noise.value_or(osrunner::Equation3Check{});
  nv.Set("checked", osjson::Value::Bool(noise.has_value()));
  nv.Set("predicted_preemptions", osjson::Value::Double(eq3.predicted));
  nv.Set("measured_preemptions", osjson::Value::Double(eq3.measured));
  nv.Set("rel_err", osjson::Value::Double(eq3.rel_err));
  nv.Set("tolerance", osjson::Value::Double(eq3.tolerance));
  nv.Set("pass", osjson::Value::Bool(!noise || noise->pass()));
  doc.Set("noise", std::move(nv));
  return doc;
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
  // --no-races runs the identical scenario with SimRace off: profiles and
  // goldens are byte-identical either way (the drift CI loop checks both).
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

  RacesVerdict races;
  races.checked = scenario->track_races && track_races;
  const auto* fixture =
      std::get_if<osrunner::RaceFixtureSpec>(&scenario->workload);
  races.expected =
      fixture != nullptr &&
      fixture->kind != osrunner::RaceFixtureSpec::Kind::kLockedControl;
  races.reports = result.RaceReports();

  if (cmd.flags.count("--update") != 0) {
    return cmd.WriteProfiles(result, prefix,
                             [&](const std::string& path, std::size_t entries,
                                 const char* unit) {
                               out << "updated " << path << " (" << entries
                                   << " " << unit << ", trials=" << trials
                                   << ")\n";
                             })
               ? 0
               : 2;
  }

  // A golden file parsed by `parse`; nullopt after printing why not.
  const auto load = [&](const std::string& path, auto parse)
      -> std::optional<decltype(parse(std::declval<std::istream&>()))> {
    std::ifstream file(path);
    if (!file) {
      err << "osprof_tool gate: missing baseline " << path
          << " (generate it with: osprof_tool gate " << name
          << " --baseline=" << prefix << " --trials=" << trials
          << " --update)\n";
      return std::nullopt;
    }
    try {
      return parse(file);
    } catch (const std::exception& e) {
      err << "osprof_tool gate: corrupt baseline " << path << ": "
          << e.what() << "\n";
      return std::nullopt;
    }
  };

  std::vector<LayerVerdict> layers;
  for (const auto& [layer, lr] : result.layers) {
    LayerVerdict verdict;
    verdict.layer = layer;
    verdict.baseline_path = prefix + "." + layer + ".prof";
    const auto golden = load(verdict.baseline_path, osprof::ProfileSet::Parse);
    if (!golden) {
      return 2;
    }
    verdict.golden_ops = golden->TotalOperations();
    verdict.measured_ops = lr.merged.TotalOperations();
    for (const Rater& rater : scoring->raters) {
      verdict.raters.push_back(
          ScoreLayer(rater, scoring->threshold, *golden, lr.merged));
    }
    layers.push_back(std::move(verdict));
  }

  // The §3.3 Equation 3 rater, checked only for noise scenarios.
  std::optional<osrunner::Equation3Check> noise;
  if (const auto* ns = std::get_if<osrunner::NoiseSpec>(&scenario->workload)) {
    noise = osrunner::CheckEquation3(*scenario, *ns, trials,
                                     result.TotalCounter("noise_preemptions"));
  }

  // The merged layered decomposition must match the .layers golden
  // exactly (empty when no instrumented layer recorded one).
  const std::map<std::string, osprof::LayeredProfileSet> measured_layers =
      MergedLayers(result);
  LayersVerdict layered;
  layered.baseline_path = prefix + ".layers";
  if (!measured_layers.empty()) {
    const auto golden = load(layered.baseline_path, osprof::ParseLayers);
    if (!golden) {
      return 2;
    }
    layered = ScoreLayersDecomposition(*golden, measured_layers,
                                       layered.baseline_path);
  }

  bool pass = true;
  out << "gate " << name << ": " << scenario->description << "\n";
  // Lock-order assertion: a deadlock-capable acquisition-order cycle in
  // any trial fails the gate even when every profile rater passes.
  const std::vector<std::string> lock_cycles = result.LockCycles();
  if (lock_cycles.empty()) {
    out << "[lock-order] no deadlock-capable cycles\n";
  } else {
    pass = false;
    out << "[lock-order] DEADLOCK-CAPABLE lock graph:\n";
    for (const std::string& cycle : lock_cycles) {
      out << "  " << cycle << "\n";
    }
  }
  // SimRace assertion: ordinary scenarios must be race-free; a seeded
  // fixture must race (true-positive check on the detector).
  if (!races.checked) {
    out << "[races] tracking disabled; skipped\n";
  } else if (races.expected) {
    if (races.pass()) {
      out << "[races] fixture raced as designed:\n";
      for (const std::string& report : races.reports) {
        out << "  " << report << "\n";
      }
    } else {
      pass = false;
      out << "[races] FIXTURE SILENT: expected data races, found none\n";
    }
  } else if (races.pass()) {
    out << "[races] no data races\n";
  } else {
    pass = false;
    out << "[races] DATA RACES:\n";
    for (const std::string& report : races.reports) {
      out << "  " << report << "\n";
    }
  }
  for (const LayerVerdict& layer : layers) {
    out << "[" << layer.layer << "] golden " << layer.golden_ops
        << " ops vs measured " << layer.measured_ops << " ops ("
        << layer.baseline_path << ")\n";
    for (const RaterVerdict& r : layer.raters) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "  %-8s (%-13s) threshold %-7.3g max score %-9.4g %s\n",
                    r.rater.c_str(), r.method.c_str(), r.threshold,
                    r.max_score, r.pass() ? "PASS" : "REGRESSION");
      out << line;
      for (const std::string& op : r.flagged_ops) {
        out << "           flagged: " << op << "\n";
      }
      pass = pass && r.pass();
    }
  }
  // Layered-decomposition exactness: deterministic sim, so the merged
  // decomposition must match the `.layers` golden to the cycle.
  if (!layered.checked) {
    out << "[layers] no layered data recorded; skipped\n";
  } else if (layered.pass()) {
    out << "[layers] decomposition matches " << layered.baseline_path
        << " exactly\n";
  } else {
    pass = false;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "[layers] DECOMPOSITION DRIFT vs %s (%llu mismatches, "
                  "max rel diff %.4g):\n",
                  layered.baseline_path.c_str(),
                  static_cast<unsigned long long>(layered.mismatch_total),
                  layered.max_rel_diff);
    out << line;
    for (const std::string& m : layered.mismatches) {
      out << "  " << m << "\n";
    }
    if (layered.mismatch_total > layered.mismatches.size()) {
      out << "  ... ("
          << layered.mismatch_total - layered.mismatches.size()
          << " more)\n";
    }
  }
  // Equation 3 (§3.3) on noise scenarios: the measured forced-preemption
  // count must agree with the model's prediction from the sample budget.
  if (noise) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "[noise] Eq.3 predicted %.1f forced preemptions, measured "
                  "%.0f (rel err %.4f, tolerance %.2f) %s\n",
                  noise->predicted, noise->measured, noise->rel_err,
                  noise->tolerance, noise->pass() ? "PASS" : "REGRESSION");
    out << line;
    pass = pass && noise->pass();
  }
  out << (pass ? "gate PASS" : "gate REGRESSION") << "\n";

  if (!cmd.WriteFlagFile("--json=", [&](std::ostream& os) {
        os << VerdictJson(name, prefix, trials, layers, layered, noise,
                          lock_cycles, races, pass)
                  .Dump();
      })) {
    return 2;
  }
  return pass ? 0 : 3;
}

}  // namespace ostools
