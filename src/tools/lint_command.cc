#include "src/tools/lint_command.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/lint/lint.h"

namespace ostools {
namespace {

constexpr const char* kLintUsage =
    "usage: osprof_tool lint [paths...] [--rules=r1,r2] [--json=FILE]\n"
    "       osprof_tool lint --list-rules\n"
    "  paths          files or directories (default: src tests bench)\n"
    "  --rules=...    comma list of rules to run (default: all)\n"
    "  --json=FILE    write the osprof-lint-v1 report to FILE\n"
    "  --list-rules   print the rule names and exit\n"
    "suppress a finding with: // osprof-lint: allow(<rule>)\n";

constexpr std::string_view kRulesFlag = "--rules=";
constexpr std::string_view kJsonFlag = "--json=";

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

}  // namespace

int RunLintCommand(const std::vector<std::string>& args, std::ostream& out,
                   std::ostream& err) {
  std::vector<std::string> paths;
  oslint::LintConfig config;
  std::string json_path;

  for (const std::string& arg : args) {
    if (arg == "--list-rules") {
      for (const std::string& rule : oslint::AllRules()) {
        out << rule << "\n";
      }
      return 0;
    }
    if (arg.starts_with(kRulesFlag)) {
      config.rules = SplitCommas(arg.substr(kRulesFlag.size()));
      const std::vector<std::string> known = oslint::AllRules();
      for (const std::string& rule : config.rules) {
        if (std::find(known.begin(), known.end(), rule) == known.end()) {
          err << "osprof_tool lint: unknown rule '" << rule << "'\n"
              << kLintUsage;
          return 1;
        }
      }
      continue;
    }
    if (arg.starts_with(kJsonFlag)) {
      json_path = arg.substr(kJsonFlag.size());
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      err << "osprof_tool lint: unknown flag '" << arg << "'\n" << kLintUsage;
      return 1;
    }
    paths.push_back(arg);
  }

  if (paths.empty()) {
    paths = {"src", "tests", "bench"};
  }

  const oslint::LintRun run = oslint::LintPaths(paths, config);

  if (!json_path.empty()) {
    std::ofstream json_out(json_path);
    if (!json_out) {
      err << "osprof_tool lint: cannot write " << json_path << "\n";
      return 2;
    }
    json_out << oslint::FindingsJson(run).Dump();
  }

  const bool io_error =
      std::any_of(run.findings.begin(), run.findings.end(),
                  [](const oslint::Finding& f) { return f.rule == "io-error"; });

  out << oslint::RenderFindings(run.findings);
  out << run.files_scanned << " file(s) scanned, " << run.findings.size()
      << " finding(s)\n";
  if (io_error) {
    return 2;
  }
  return run.findings.empty() ? 0 : 3;
}

}  // namespace ostools
