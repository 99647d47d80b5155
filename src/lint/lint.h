// osprof_lint: the in-tree static-analysis pass over this repository's
// own sources.
//
// Every profiling guarantee this codebase makes rests on invariants that
// used to be enforced only by code review:
//
//  * determinism   -- byte-identical golden serialization requires that
//                     nothing outside src/sim/rng.h and src/core/clock.*
//                     observes a nondeterminism source (wall clocks,
//                     rand(), std::random_device);
//  * probe-discipline -- the ISSUE-3 hot-path contract: no string-literal
//                     op names at Record/Wrap/WrapWithValue call sites
//                     (those must resolve a ProbeHandle at attach time),
//                     and no resurrection of removed accessors
//                     (mutable_profiles);
//  * locking       -- simulated task code in src/sim, src/fs and src/net
//                     must block through the sim/sync primitives, never
//                     real std::mutex / std::thread (which would desync
//                     simulated time);
//  * header-hygiene -- every header carries a guard (#pragma once or
//                     #ifndef/#define) and no header writes
//                     `using namespace`;
//  * shared-state  -- mutable static/thread_local data in src/sim, src/fs
//                     and src/net must be wrapped in an osim::Shared<T>
//                     race-checked cell (src/sim/race_tracker.h) or carry
//                     an explicit allow, so SimRace sees every access;
//  * suppression-hygiene -- every `osprof-lint: allow(...)` must name
//                     known rules that actually fire on the lines the
//                     comment covers; stale or misspelled suppressions
//                     are findings themselves and cannot be suppressed.
//
// Rules are individually suppressible at the offending line with
//   // osprof-lint: allow(rule[, rule...])
// on the same line or the line directly above.  Findings serialize as
// osprof-lint-v1 JSON (osjson) for CI, and as file:line text for humans.

#ifndef OSPROF_SRC_LINT_LINT_H_
#define OSPROF_SRC_LINT_LINT_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/jsonw.h"

namespace oslint {

// Stable rule identifiers; these are the names used in suppression
// comments, --rules= filters and JSON output.
inline constexpr const char* kRuleDeterminism = "determinism";
inline constexpr const char* kRuleProbeDiscipline = "probe-discipline";
inline constexpr const char* kRuleLocking = "locking";
inline constexpr const char* kRuleHeaderHygiene = "header-hygiene";
inline constexpr const char* kRuleSharedState = "shared-state";
inline constexpr const char* kRuleSuppressionHygiene = "suppression-hygiene";

// All rules, in reporting order.
std::vector<std::string> AllRules();

struct Finding {
  std::string rule;
  std::string file;
  int line = 0;
  std::string message;
};

struct LintConfig {
  // Empty means every rule.  Unknown names are rejected by the CLI before
  // a config is built.
  std::vector<std::string> rules;

  bool RuleEnabled(std::string_view rule) const;
};

// Lints one in-memory source.  `path` determines per-rule scoping (the
// determinism allowlist, the locking rule's src/sim|fs|net scope, the
// header rules' *.h scope) and is echoed into findings; it does not need
// to exist on disk.
std::vector<Finding> LintText(const std::string& path,
                              std::string_view source,
                              const LintConfig& config = {});

// Lints one file from disk.  I/O failures produce a finding with rule
// "io-error" so a vanished file cannot silently pass.
std::vector<Finding> LintFile(const std::string& path,
                              const LintConfig& config = {});

struct LintRun {
  std::vector<Finding> findings;
  int files_scanned = 0;
};

// Lints files and directories (recursively; *.h, *.cc, *.cpp).  Paths are
// visited in sorted order so output is deterministic.
LintRun LintPaths(const std::vector<std::string>& paths,
                  const LintConfig& config = {});

// file:line: [rule] message, one per finding.
std::string RenderFindings(const std::vector<Finding>& findings);

// The osprof-lint-v1 document: schema, files_scanned, per-rule counts,
// and the findings array.
osjson::Value FindingsJson(const LintRun& run);

}  // namespace oslint

#endif  // OSPROF_SRC_LINT_LINT_H_
