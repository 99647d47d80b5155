#include "src/tools/scenario_front_end.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <utility>

namespace ostools {

ScenarioFrontEnd::ScenarioFrontEnd(ScenarioCommandSpec spec,
                                   std::ostream& out, std::ostream& err)
    : spec(std::move(spec)), out(out), err(err) {}

bool ScenarioFrontEnd::Parse(const std::vector<std::string>& args) {
  for (const std::string& arg : args) {
    const std::size_t eq = arg.find('=');
    // "--x=" for a valued flag, the whole argument otherwise.
    const std::string flag =
        eq == std::string::npos ? arg : arg.substr(0, eq + 1);
    const std::string value = arg.substr(flag.size());
    if (flag == "--trials=" || flag == "--jobs=") {
      const std::optional<int> n = osrunner::ParseInt(value);
      if (!n) {
        err << "osprof_tool " << spec.name << ": bad " << arg.substr(0, eq)
            << " value '" << value << "'\n";
        return false;
      }
      (flag == "--trials=" ? options.trials : options.jobs) = *n;
    } else if (std::find(spec.flags.begin(), spec.flags.end(), flag) !=
               spec.flags.end()) {
      flags[flag].push_back(value);
      if (flag == spec.stop) {
        return true;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      err << "osprof_tool " << spec.name << ": unknown flag '" << arg
          << "'\n"
          << spec.usage;
      return false;
    } else if (scenario_name.empty()) {
      scenario_name = arg;
    } else {
      err << spec.usage;
      return false;
    }
  }
  return true;
}

const std::vector<std::string>& ScenarioFrontEnd::Values(
    const std::string& flag) const {
  static const std::vector<std::string> kNone;
  const auto it = flags.find(flag);
  return it == flags.end() ? kNone : it->second;
}

std::string ScenarioFrontEnd::Value(const std::string& flag) const {
  const std::vector<std::string>& values = Values(flag);
  return values.empty() ? "" : values.back();
}

std::optional<osrunner::RunResult> ScenarioFrontEnd::Run(
    const std::function<void(osrunner::Scenario&)>& adjust) {
  if (scenario_name.empty()) {
    err << spec.usage;
    return std::nullopt;
  }
  if (options.trials <= 0) {
    err << "osprof_tool " << spec.name << ": --trials must be positive\n";
    return std::nullopt;
  }
  scenario = osrunner::BuiltinScenarios().Find(scenario_name);
  if (scenario == nullptr) {
    err << "osprof_tool " << spec.name << ": unknown scenario '"
        << scenario_name << "'";
    if (spec.list_when_unknown) {
      err << "; available:\n";
      ListScenarios(err);
    } else {
      err << "\n";
    }
    status = spec.unknown_scenario_exit;
    return std::nullopt;
  }
  osrunner::Scenario run = *scenario;
  if (adjust) {
    adjust(run);
  }
  status = 2;
  try {
    std::optional<osrunner::RunResult> result =
        osrunner::RunScenario(run, options);
    status = 0;
    return result;
  } catch (const std::exception& e) {
    err << "osprof_tool " << spec.name << ": " << e.what() << "\n";
    return std::nullopt;
  }
}

bool ScenarioFrontEnd::Write(const std::string& path,
                             const std::string& text) const {
  std::ofstream file(path);
  if (!file) {
    err << "osprof_tool " << spec.name << ": cannot write " << path << "\n";
    return false;
  }
  file << text;
  return true;
}

bool ScenarioFrontEnd::WriteFlagFile(const std::string& flag,
                                     const std::string& text) const {
  const std::string path = Value(flag);
  if (path.empty()) {
    return true;
  }
  if (!Write(path, text)) {
    return false;
  }
  out << "wrote " << path << "\n";
  return true;
}

void ListScenarios(std::ostream& out) {
  const osrunner::ScenarioRegistry& registry = osrunner::BuiltinScenarios();
  for (const std::string& name : registry.Names()) {
    char line[200];
    std::snprintf(line, sizeof(line), "  %-16s %s\n", name.c_str(),
                  registry.Find(name)->description.c_str());
    out << line;
  }
}

std::vector<GoldenFile> GoldenFiles(const osrunner::RunResult& result) {
  std::vector<GoldenFile> files;
  for (const auto& [layer, lr] : result.layers) {
    files.push_back({layer, "." + layer + ".prof", lr.merged.ToString(),
                     lr.merged.size(), "ops"});
  }
  const std::map<std::string, osprof::LayeredProfileSet> layered =
      MergedLayers(result);
  if (!layered.empty()) {
    files.push_back({"", ".layers", osprof::LayersToString(layered),
                     layered.size(), "layers"});
  }
  return files;
}

std::map<std::string, osprof::LayeredProfileSet> MergedLayers(
    const osrunner::RunResult& result) {
  std::map<std::string, osprof::LayeredProfileSet> layered;
  for (const auto& [layer, lr] : result.layers) {
    if (!lr.layered.empty()) {
      layered.emplace(layer, lr.layered);
    }
  }
  return layered;
}

namespace {

// The line of `text` that starts at `start`, without its newline.
std::string LineAt(const std::string& text, std::size_t start) {
  return start < text.size()
             ? text.substr(start, text.find('\n', start) - start)
             : "(end of file)";
}

}  // namespace

LineDifference FirstDifferingLine(const std::string& want,
                                  const std::string& got) {
  // The first differing line starts after the last newline both share.
  const auto at =
      std::mismatch(want.begin(), want.end(), got.begin(), got.end()).first;
  const auto start =
      std::find(std::make_reverse_iterator(at), want.rend(), '\n').base();
  const auto offset = static_cast<std::size_t>(start - want.begin());
  return {static_cast<std::size_t>(1 + std::count(want.begin(), start, '\n')),
          LineAt(want, offset), LineAt(got, offset)};
}

}  // namespace ostools
