#include "src/tools/profile_tool.h"

#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>

#include "src/core/analysis.h"
#include "src/core/cluster.h"
#include "src/core/compare.h"
#include "src/core/peaks.h"
#include "src/core/prior.h"
#include "src/core/profile.h"
#include "src/core/report.h"
#include "src/core/sampling.h"
#include "src/runner/runner.h"
#include "src/tools/gate_command.h"
#include "src/tools/layers_command.h"
#include "src/tools/lint_command.h"
#include "src/tools/noise_command.h"
#include "src/tools/races_command.h"
#include "src/tools/run_command.h"

namespace ostools {
namespace {

constexpr const char* kUsage =
    "usage: osprof_tool <command> ...\n"
    "  render  <set.prof> [op]              ASCII plots (all ops or one)\n"
    "  rank    <set.prof>                   operations by total latency\n"
    "  peaks   <set.prof> <op>              peak report with hypotheses\n"
    "  compare <a.prof> <b.prof> [--method <name>]\n"
    "                                       automated profile analysis\n"
    "  gnuplot <set.prof> <op>              gnuplot script for one op\n"
    "  check   <set.prof>                   checksum verification\n"
    "  outliers <a.prof> <b.prof> ...       fleet outlier machines\n"
    "  grid    <set.sprof> <op> [lo hi]     sampled-profile density grid\n"
    "  plot3d  <set.sprof> <op>             gnuplot script (Figure 9 style)\n"
    "  run     <scenario> [--trials=N] [--jobs=J] [--out=PREFIX]\n"
    "                                       multi-trial scenario runner\n"
    "  run     --list                       available scenarios\n"
    "  gate    <scenario> [--baseline=PREFIX] [--raters=emd,chi2,ops,latency]\n"
    "          [--threshold=X] [--trials=N] [--jobs=J] [--json=FILE]\n"
    "          [--update]                    profile-regression gate\n"
    "  gate    --list                       gateable scenarios\n"
    "  layers  <scenario> [--trials=N] [--jobs=J] [--json=FILE] [--out=FILE]\n"
    "                                       exact layered latency "
    "decomposition\n"
    "  noise   [scenario]                   OS-noise tracer table + Eq.3 "
    "check\n"
    "  races   <scenario> [--trials=N] [--jobs=J] [--json=FILE]\n"
    "                                       SimRace data-race report\n"
    "  lint    [paths...] [--rules=r1,r2] [--json=FILE]\n"
    "                                       in-tree static analysis\n"
    "  lint    --list-rules                 lint rule names\n"
    "methods: chi-square, total-ops, total-latency, earth-movers,\n"
    "         intersection, jeffrey, minkowski-l1, minkowski-l2\n";

// A profile file parsed by T::Parse (flat or sampled); nullopt after
// printing why not.
template <typename T = osprof::ProfileSet>
std::optional<T> LoadSet(const std::string& path, std::ostream& err) {
  std::ifstream in(path);
  if (!in) {
    err << "osprof_tool: cannot open " << path << "\n";
    return std::nullopt;
  }
  try {
    return T::Parse(in);
  } catch (const std::exception& e) {
    err << "osprof_tool: parse error in " << path << ": " << e.what() << "\n";
    return std::nullopt;
  }
}

std::optional<osprof::CompareMethod> MethodByName(const std::string& name) {
  using osprof::CompareMethod;
  for (CompareMethod m :
       {CompareMethod::kChiSquare, CompareMethod::kTotalOps,
        CompareMethod::kTotalLatency, CompareMethod::kEarthMovers,
        CompareMethod::kIntersection, CompareMethod::kJeffrey,
        CompareMethod::kMinkowskiL1, CompareMethod::kMinkowskiL2}) {
    if (osprof::CompareMethodName(m) == name) {
      return m;
    }
  }
  return std::nullopt;
}

int Render(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  const auto set = LoadSet(args[1], err);
  if (!set) {
    return 2;
  }
  if (args.size() >= 3) {
    const osprof::Profile* p = set->Find(args[2]);
    if (p == nullptr) {
      err << "osprof_tool: no operation '" << args[2] << "' in " << args[1]
          << "\n";
      return 2;
    }
    out << osprof::RenderAscii(*p);
    return 0;
  }
  out << osprof::RenderAsciiSet(*set);
  return 0;
}

int Rank(const std::vector<std::string>& args, std::ostream& out,
         std::ostream& err) {
  const auto set = LoadSet(args[1], err);
  if (!set) {
    return 2;
  }
  out << "operation        ops          latency%   cumulative%\n";
  for (const osprof::RankedOp& op : osprof::RankByLatency(*set)) {
    char line[128];
    std::snprintf(line, sizeof(line), "%-16s %-12llu %8.2f%% %10.2f%%\n",
                  op.op_name.c_str(),
                  static_cast<unsigned long long>(op.total_ops),
                  op.latency_fraction * 100.0,
                  op.cumulative_fraction * 100.0);
    out << line;
  }
  return 0;
}

int Peaks(const std::vector<std::string>& args, std::ostream& out,
          std::ostream& err) {
  const auto set = LoadSet(args[1], err);
  if (!set) {
    return 2;
  }
  const osprof::Profile* p = set->Find(args[2]);
  if (p == nullptr) {
    err << "osprof_tool: no operation '" << args[2] << "'\n";
    return 2;
  }
  const auto peaks = osprof::FindPeaks(p->histogram());
  out << osprof::DescribePeaks(peaks) << "\n";
  const osprof::PriorKnowledge prior = osprof::PriorKnowledge::PaperTestbed();
  for (const auto& annotated : prior.Annotate(peaks)) {
    out << "  peak @" << annotated.peak.mode_bucket << ": "
        << annotated.peak.count << " ops, mean "
        << osprof::FormatSeconds(annotated.peak.mean_latency /
                                 osprof::kPaperCpuHz);
    if (!annotated.hypotheses.empty()) {
      out << "  [";
      for (std::size_t i = 0; i < annotated.hypotheses.size(); ++i) {
        out << (i != 0 ? ", " : "") << annotated.hypotheses[i];
      }
      out << "]";
    }
    out << "\n";
  }
  return 0;
}

int Compare(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  osprof::AnalysisOptions options;
  std::vector<std::string> files;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--method") {
      if (i + 1 >= args.size()) {
        err << "osprof_tool: --method needs an argument\n";
        return 1;
      }
      const auto method = MethodByName(args[++i]);
      if (!method) {
        err << "osprof_tool: unknown method '" << args[i] << "'\n";
        return 1;
      }
      options.method = *method;
      options.score_threshold = osprof::DefaultThreshold(*method);
    } else {
      files.push_back(args[i]);
    }
  }
  if (files.size() != 2) {
    err << kUsage;
    return 1;
  }
  const auto a = LoadSet(files[0], err);
  const auto b = LoadSet(files[1], err);
  if (!a || !b) {
    return 2;
  }
  const osprof::AnalysisReport report =
      osprof::CompareProfileSets(*a, *b, options);
  out << "method: " << osprof::CompareMethodName(options.method) << "\n";
  out << report.Summary();
  return 0;
}

int Gnuplot(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  const auto set = LoadSet(args[1], err);
  if (!set) {
    return 2;
  }
  const osprof::Profile* p = set->Find(args[2]);
  if (p == nullptr) {
    err << "osprof_tool: no operation '" << args[2] << "'\n";
    return 2;
  }
  out << osprof::RenderGnuplot(*p);
  return 0;
}

int Check(const std::vector<std::string>& args, std::ostream& out,
          std::ostream& err) {
  const auto set = LoadSet(args[1], err);
  if (!set) {
    return 2;
  }
  bool all_ok = true;
  for (const auto& [name, profile] : *set) {
    const bool ok = profile.histogram().CheckConsistency();
    all_ok = all_ok && ok;
    out << (ok ? "OK      " : "BROKEN  ") << name << " ("
        << profile.total_operations() << " ops recorded, "
        << profile.histogram().recorded() << " expected)\n";
  }
  out << (all_ok ? "all profiles consistent\n"
                 : "CHECKSUM MISMATCH: lost updates or instrumentation "
                   "error\n");
  return all_ok ? 0 : 2;
}

int Outliers(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  std::vector<osprof::MachineProfile> fleet;
  for (std::size_t i = 1; i < args.size(); ++i) {
    auto set = LoadSet(args[i], err);
    if (!set) {
      return 2;
    }
    // Strip directories from the machine label.
    const auto slash = args[i].find_last_of('/');
    const std::string name =
        slash == std::string::npos ? args[i] : args[i].substr(slash + 1);
    fleet.push_back(osprof::MachineProfile{name, std::move(*set)});
  }
  const auto deviations = osprof::FindOutliers(fleet);
  int flagged = 0;
  for (const osprof::MachineDeviation& d : deviations) {
    if (!d.outlier) {
      continue;
    }
    ++flagged;
    char line[160];
    std::snprintf(line, sizeof(line), "OUTLIER  %-20s %-16s score %.3f\n",
                  d.machine.c_str(), d.op_name.c_str(), d.score);
    out << line;
  }
  if (flagged == 0) {
    out << "no outliers: every machine's profiles match the fleet\n";
  }
  return 0;
}

int Grid(const std::vector<std::string>& args, std::ostream& out,
         std::ostream& err) {
  const auto set = LoadSet<osprof::SampledProfileSet>(args[1], err);
  if (!set) {
    return 2;
  }
  int lo = 5;
  int hi = 30;
  if (args.size() >= 5) {
    const std::optional<int> first = osrunner::ParseInt(args[3]);
    const std::optional<int> last = osrunner::ParseInt(args[4]);
    if (!first || !last) {
      err << kUsage;
      return 1;
    }
    lo = *first;
    hi = *last;
  }
  out << set->RenderGrid(args[2], lo, hi);
  return 0;
}

int Plot3D(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  const auto set = LoadSet<osprof::SampledProfileSet>(args[1], err);
  if (!set) {
    return 2;
  }
  out << set->RenderGnuplot3D(args[2], osprof::kPaperCpuHz);
  return 0;
}

}  // namespace

int RunProfileTool(const std::vector<std::string>& args, std::ostream& out,
                   std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << kUsage;
    return args.empty() ? 1 : 0;
  }
  const std::string& cmd = args[0];
  const std::size_t n = args.size();
  if (cmd == "render" && n >= 2) {
    return Render(args, out, err);
  }
  if (cmd == "rank" && n == 2) {
    return Rank(args, out, err);
  }
  if (cmd == "peaks" && n == 3) {
    return Peaks(args, out, err);
  }
  if (cmd == "compare" && n >= 3) {
    return Compare(args, out, err);
  }
  if (cmd == "gnuplot" && n == 3) {
    return Gnuplot(args, out, err);
  }
  if (cmd == "check" && n == 2) {
    return Check(args, out, err);
  }
  if (cmd == "outliers" && n >= 3) {
    return Outliers(args, out, err);
  }
  if (cmd == "grid" && (n == 3 || n == 5)) {
    return Grid(args, out, err);
  }
  if (cmd == "plot3d" && n == 3) {
    return Plot3D(args, out, err);
  }
  if (cmd == "run" && n >= 2) {
    return RunRunCommand(std::vector<std::string>(args.begin() + 1, args.end()),
                         out, err);
  }
  if (cmd == "gate" && n >= 2) {
    return RunGateCommand(
        std::vector<std::string>(args.begin() + 1, args.end()), out, err);
  }
  if (cmd == "layers" && n >= 2) {
    return RunLayersCommand(
        std::vector<std::string>(args.begin() + 1, args.end()), out, err);
  }
  if (cmd == "noise") {
    return RunNoiseCommand(
        std::vector<std::string>(args.begin() + 1, args.end()), out, err);
  }
  if (cmd == "races") {
    return RunRacesCommand(
        std::vector<std::string>(args.begin() + 1, args.end()), out, err);
  }
  if (cmd == "lint") {
    return RunLintCommand(
        std::vector<std::string>(args.begin() + 1, args.end()), out, err);
  }
  err << kUsage;
  return 1;
}

}  // namespace ostools
