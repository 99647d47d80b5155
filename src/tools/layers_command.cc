#include "src/tools/layers_command.h"

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "src/core/jsonw.h"
#include "src/core/layered.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "src/tools/scenario_front_end.h"

namespace ostools {
namespace {

constexpr const char* kLayersUsage =
    "usage: osprof_tool layers <scenario> [--trials=N] [--jobs=J]\n"
    "                          [--json=FILE] [--out=FILE]\n"
    "  --trials=N   independently-seeded trials to run (default 1)\n"
    "  --jobs=J     worker threads; 0 = all hardware threads (default 1)\n"
    "  --json=FILE  write the osprof-layers-v1 JSON decomposition to FILE\n"
    "  --out=FILE   write the serialized .layers form (gate golden format)\n";

osjson::Value LayersJson(const std::string& scenario, int trials,
                         const std::map<std::string,
                                        osprof::LayeredProfileSet>& layers) {
  osjson::Value doc = osjson::Value::Object();
  doc.Set("schema", osjson::Value::Str("osprof-layers-v1"));
  doc.Set("scenario", osjson::Value::Str(scenario));
  doc.Set("trials", osjson::Value::Int(trials));
  osjson::Value layer_array = osjson::Value::Array();
  for (const auto& [layer, set] : layers) {
    if (set.empty()) {
      continue;
    }
    osjson::Value l = osjson::Value::Object();
    l.Set("layer", osjson::Value::Str(layer));
    l.Set("resolution", osjson::Value::Int(set.resolution()));
    osjson::Value op_array = osjson::Value::Array();
    for (const auto& [op, profile] : set) {
      if (profile.empty()) {
        continue;
      }
      osjson::Value o = osjson::Value::Object();
      o.Set("op", osjson::Value::Str(op));
      osjson::Value bucket_array = osjson::Value::Array();
      for (const auto& [bucket, data] : profile.buckets()) {
        osjson::Value b = osjson::Value::Object();
        b.Set("bucket", osjson::Value::Int(bucket));
        b.Set("count", osjson::Value::Uint(data.count));
        osjson::Value cycles = osjson::Value::Object();
        for (int c = 0; c < osprof::kNumLayerComponents; ++c) {
          cycles.Set(
              osprof::LayerComponentName(
                  static_cast<osprof::LayerComponent>(c)),
              osjson::Value::Uint(data.cycles[c]));
        }
        b.Set("cycles", std::move(cycles));
        bucket_array.Append(std::move(b));
      }
      o.Set("buckets", std::move(bucket_array));
      op_array.Append(std::move(o));
    }
    l.Set("ops", std::move(op_array));
    layer_array.Append(std::move(l));
  }
  doc.Set("layers", std::move(layer_array));
  return doc;
}

}  // namespace

int RunLayersCommand(const std::vector<std::string>& args, std::ostream& out,
                     std::ostream& err) {
  ScenarioFrontEnd cmd({.name = "layers",
                        .usage = kLayersUsage,
                        .flags = {"--json=", "--out="},
                        .stop = "",
                        .unknown_scenario_exit = 1,
                        .list_when_unknown = false},
                       out, err);
  if (!cmd.Parse(args)) {
    return 1;
  }
  const std::optional<osrunner::RunResult> result = cmd.Run();
  if (!result) {
    return cmd.status;
  }
  const osrunner::Scenario* scenario = cmd.scenario;
  const std::map<std::string, osprof::LayeredProfileSet> layers =
      MergedLayers(*result);

  out << scenario->name << ": " << scenario->description << "\n";
  char line[200];
  std::snprintf(line, sizeof(line),
                "layered decomposition over %d trial(s) (base seed %llu)\n",
                result->options.trials,
                static_cast<unsigned long long>(scenario->kernel.seed));
  out << line;
  if (layers.empty()) {
    out << "no layered data: no instrumented layer recorded any "
           "operation\n";
    return 0;
  }
  out << osprof::RenderLayers(layers);

  const std::string json =
      LayersJson(scenario->name, result->options.trials, layers).Dump();
  const bool written =
      cmd.WriteFlagFile("--json=", json) &&
      cmd.WriteFlagFile("--out=", osprof::LayersToString(layers));
  return written ? 0 : 2;
}

}  // namespace ostools
