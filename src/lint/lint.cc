#include "src/lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "src/lint/lexer.h"

namespace oslint {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Rule tables.

// determinism: identifiers whose mere mention is a nondeterminism source.
const std::unordered_set<std::string>& AlwaysBannedIdents() {
  static const std::unordered_set<std::string> kSet = {
      "steady_clock",
      "system_clock",
      "high_resolution_clock",
      "random_device",
  };
  return kSet;
}

// determinism: identifiers banned only in call position (`name(`), because
// the bare words are common ("time", "clock") as members and local names.
const std::unordered_set<std::string>& CallBannedIdents() {
  static const std::unordered_set<std::string> kSet = {
      "rand",         "srand",    "time",   "clock", "clock_gettime",
      "gettimeofday", "localtime", "gmtime", "mktime",
  };
  return kSet;
}

// Keywords that can legitimately precede a call (`return time(...)`).
// Any other identifier directly before `name(` makes it a declaration
// (`FakeClock clock(100)`), which is not a call.
const std::unordered_set<std::string>& CallContextKeywords() {
  static const std::unordered_set<std::string> kSet = {
      "return", "co_return", "co_await", "co_yield", "case",
      "if",     "while",     "for",      "switch",   "do",
      "else",   "throw",     "not",      "and",      "or",
  };
  return kSet;
}

// determinism: the two sanctioned homes for nondeterminism.  rng.h owns
// seeded pseudo-randomness; clock.* owns wall-clock reads (WallTimer).
bool DeterminismAllowlisted(const std::string& path) {
  return path.ends_with("src/sim/rng.h") || path.ends_with("src/core/clock.h") ||
         path.ends_with("src/core/clock.cc") || path == "rng.h" ||
         path == "clock.h" || path == "clock.cc";
}

// probe-discipline: record-path entry points that must take ProbeHandles
// (or pre-resolved ids), never string literals, at call sites.
const std::unordered_set<std::string>& RecordEntryPoints() {
  static const std::unordered_set<std::string> kSet = {
      "Record",
      "Wrap",
      "WrapWithValue",
  };
  return kSet;
}

// probe-discipline: the profiling spine that is allowed to touch the
// kernel's RequestContext.  Span frames are pushed/popped only inside
// SimProfiler::Wrap (and read by the lock-order and race layers);
// workload or filesystem code must never manipulate frames by hand, or
// the layered decomposition stops being exact.
bool RequestContextAllowlisted(const std::string& path) {
  static const std::vector<std::string> kSpine = {
      "src/sim/request_context.h",      "src/sim/request_context.cc",
      "src/sim/kernel.h",               "src/sim/kernel.cc",
      "src/sim/interference.h",         "src/sim/interference.cc",
      "src/sim/lock_order.h",           "src/sim/lock_order.cc",
      "src/sim/race_tracker.h",         "src/sim/race_tracker.cc",
      "src/profilers/sim_profiler.h",   "src/profilers/sim_profiler.cc",
      // The context's own unit tests drive frames by hand, by design.
      "tests/sim/request_context_test.cc",
      "tests/sim/scale_arena_test.cc",
  };
  for (const std::string& allowed : kSpine) {
    if (path.ends_with(allowed)) {
      return true;
    }
    // Bare file names, for lint runs from inside the directory.
    const std::size_t slash = allowed.rfind('/');
    if (path == allowed.substr(slash + 1)) {
      return true;
    }
  }
  return false;
}

// locking: std:: members that imply real threads or real blocking inside
// the simulation.  Simulated code must use osim::SimSemaphore /
// SimSpinlock so that blocking advances simulated -- not host -- time.
const std::unordered_set<std::string>& BannedStdSyncIdents() {
  static const std::unordered_set<std::string> kSet = {
      "mutex",        "thread",       "jthread",
      "condition_variable",           "condition_variable_any",
      "shared_mutex", "shared_lock",  "recursive_mutex",
      "timed_mutex",  "lock_guard",   "unique_lock",
      "scoped_lock",  "future",       "promise",
      "async",        "packaged_task",
  };
  return kSet;
}

const std::vector<std::string>& BannedSyncHeaders() {
  static const std::vector<std::string> kList = {
      "<mutex>", "<thread>", "<condition_variable>", "<shared_mutex>",
      "<future>",
  };
  return kList;
}

// locking is scoped: only code that runs under the simulated kernel.
bool InLockingScope(const std::string& path) {
  return path.find("src/sim/") != std::string::npos ||
         path.find("src/fs/") != std::string::npos ||
         path.find("src/net/") != std::string::npos;
}

bool IsHeaderPath(const std::string& path) { return path.ends_with(".h"); }

// ---------------------------------------------------------------------------
// Suppressions.
//
//   // osprof-lint: allow(rule[, rule...])
//
// covers every line the comment spans plus the line below it, so the
// comment works both trailing the offending line and on its own line
// above it.  Suppressions are parsed into a structured form first so the
// suppression-hygiene rule can audit each one against the raw findings.

struct SuppressionComment {
  int line = 0;      // First covered line (the comment's first line).
  int end_line = 0;  // Last comment line; coverage extends one line past.
  std::vector<std::string> rules;  // As written, in order.
};

using SuppressionMap = std::unordered_map<int, std::set<std::string>>;

std::vector<SuppressionComment> ParseSuppressionComments(
    const std::vector<Comment>& comments) {
  std::vector<SuppressionComment> parsed;
  for (const Comment& comment : comments) {
    const std::string& text = comment.text;
    const std::size_t marker = text.find("osprof-lint:");
    if (marker == std::string::npos) {
      continue;
    }
    const std::size_t open = text.find("allow(", marker);
    if (open == std::string::npos) {
      continue;
    }
    const std::size_t close = text.find(')', open);
    if (close == std::string::npos) {
      continue;
    }
    SuppressionComment entry;
    entry.line = comment.line;
    entry.end_line = comment.end_line;
    std::string rules = text.substr(open + 6, close - open - 6);
    std::stringstream ss(rules);
    std::string rule;
    while (std::getline(ss, rule, ',')) {
      const std::size_t first = rule.find_first_not_of(" \t");
      if (first == std::string::npos) {
        continue;
      }
      const std::size_t last = rule.find_last_not_of(" \t");
      std::string name = rule.substr(first, last - first + 1);
      // Rule names are kebab-case identifiers.  Anything else (the
      // `allow(rule[, rule...])` placeholders in documentation, say) is
      // not a suppression and must not reach the hygiene audit.
      const bool well_formed =
          !name.empty() &&
          std::all_of(name.begin(), name.end(), [](char c) {
            return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                   c == '-';
          });
      if (well_formed) {
        entry.rules.push_back(std::move(name));
      }
    }
    if (!entry.rules.empty()) {
      parsed.push_back(std::move(entry));
    }
  }
  return parsed;
}

SuppressionMap BuildSuppressionMap(
    const std::vector<SuppressionComment>& comments) {
  SuppressionMap map;
  for (const SuppressionComment& comment : comments) {
    for (const std::string& rule : comment.rules) {
      for (int line = comment.line; line <= comment.end_line + 1; ++line) {
        map[line].insert(rule);
      }
    }
  }
  return map;
}

bool Suppressed(const SuppressionMap& map, const std::string& rule, int line) {
  const auto it = map.find(line);
  return it != map.end() && it->second.count(rule) > 0;
}

// ---------------------------------------------------------------------------
// Directive helpers.

// Splits "include <mutex>" into ("include", "<mutex>"), trimming blanks.
std::pair<std::string, std::string> SplitDirective(const std::string& text) {
  std::size_t i = 0;
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  std::size_t j = i;
  while (j < text.size() &&
         !std::isspace(static_cast<unsigned char>(text[j]))) {
    ++j;
  }
  const std::string keyword = text.substr(i, j - i);
  while (j < text.size() &&
         std::isspace(static_cast<unsigned char>(text[j]))) {
    ++j;
  }
  std::size_t end = text.size();
  while (end > j &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return {keyword, text.substr(j, end - j)};
}

// ---------------------------------------------------------------------------
// The rules.  Each walks the shared token stream; findings are filtered
// against the suppression map by the caller.

void CheckDeterminism(const std::string& path,
                      const std::vector<Token>& tokens,
                      std::vector<Finding>* findings) {
  if (DeterminismAllowlisted(path)) {
    return;
  }
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (tok.kind != TokKind::kIdentifier) {
      continue;
    }
    if (AlwaysBannedIdents().count(tok.text) > 0) {
      findings->push_back(Finding{
          kRuleDeterminism, path, tok.line,
          "nondeterminism source '" + tok.text +
              "' outside src/sim/rng.h and src/core/clock.* (use "
              "osprof::WallTimer for wall-clock timing)"});
      continue;
    }
    if (CallBannedIdents().count(tok.text) == 0) {
      continue;
    }
    // Call position only: `name` directly followed by `(`.
    if (i + 1 >= tokens.size() || tokens[i + 1].kind != TokKind::kPunct ||
        tokens[i + 1].text != "(") {
      continue;
    }
    if (i > 0) {
      const Token& prev = tokens[i - 1];
      // `obj.time(...)` / `ptr->clock(...)`: a member, not libc.
      if (prev.kind == TokKind::kPunct &&
          (prev.text == "." || prev.text == "->")) {
        continue;
      }
      // `FakeClock clock(100)`: a declaration, not a call.
      if (prev.kind == TokKind::kIdentifier &&
          CallContextKeywords().count(prev.text) == 0) {
        continue;
      }
    }
    findings->push_back(Finding{
        kRuleDeterminism, path, tok.line,
        "call to wall-clock/random function '" + tok.text +
            "()' outside src/sim/rng.h and src/core/clock.*"});
  }
}

void CheckProbeDiscipline(const std::string& path,
                          const std::vector<Token>& tokens,
                          std::vector<Finding>* findings) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (tok.kind != TokKind::kIdentifier) {
      continue;
    }
    if (tok.text == "mutable_profiles") {
      findings->push_back(Finding{
          kRuleProbeDiscipline, path, tok.line,
          "'mutable_profiles' was removed when op names were interned; "
          "use ProfileSet::Resolve / AddById"});
      continue;
    }
    // RequestContext frames belong to the profiling spine.  Outside it,
    // naming the type -- or calling `.Push(` / `->Pop(` on anything --
    // is manual frame manipulation and breaks the exactness guarantee.
    if (!RequestContextAllowlisted(path)) {
      if (tok.text == "RequestContext") {
        findings->push_back(Finding{
            kRuleProbeDiscipline, path, tok.line,
            "direct RequestContext use outside the profiling spine; span "
            "frames are pushed/popped only by SimProfiler::Wrap"});
        continue;
      }
      if ((tok.text == "Push" || tok.text == "Pop") && i >= 1 &&
          i + 1 < tokens.size() && tokens[i - 1].kind == TokKind::kPunct &&
          (tokens[i - 1].text == "." || tokens[i - 1].text == "->") &&
          tokens[i + 1].kind == TokKind::kPunct && tokens[i + 1].text == "(") {
        findings->push_back(Finding{
            kRuleProbeDiscipline, path, tok.line,
            "manual span-frame " + tok.text +
                "() outside the profiling spine; only SimProfiler::Wrap "
                "may manipulate RequestContext frames"});
        continue;
      }
    }
    // `Record("name", ...)` and friends: a string-keyed op name on the
    // record path re-introduces the per-record string lookup the
    // ProbeHandle redesign removed.  The deprecated string shims are gone,
    // so the rule applies tree-wide (tests included): a string literal
    // anywhere in the first argument (including concatenations like
    // `prefix + "read"`) is a violation.
    if (RecordEntryPoints().count(tok.text) == 0) {
      continue;
    }
    if (i + 1 >= tokens.size() || tokens[i + 1].kind != TokKind::kPunct ||
        tokens[i + 1].text != "(") {
      continue;
    }
    int depth = 0;
    for (std::size_t j = i + 1; j < tokens.size(); ++j) {
      const Token& arg = tokens[j];
      if (arg.kind == TokKind::kPunct) {
        if (arg.text == "(" || arg.text == "[" || arg.text == "{") {
          ++depth;
        } else if (arg.text == ")" || arg.text == "]" || arg.text == "}") {
          if (--depth == 0) {
            break;  // Call closed before any argument.
          }
        } else if (arg.text == "," && depth == 1) {
          break;  // End of the first argument.
        }
        continue;
      }
      if (arg.kind == TokKind::kString) {
        findings->push_back(Finding{
            kRuleProbeDiscipline, path, tok.line,
            "string-keyed op name at " + tok.text +
                "() call site; resolve a ProbeHandle at attach time instead"});
        break;
      }
    }
  }
}

void CheckLocking(const std::string& path, const std::vector<Token>& tokens,
                  std::vector<Finding>* findings) {
  if (!InLockingScope(path)) {
    return;
  }
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (tok.kind == TokKind::kDirective) {
      const auto [keyword, arg] = SplitDirective(tok.text);
      if (keyword == "include") {
        for (const std::string& banned : BannedSyncHeaders()) {
          if (arg == banned) {
            findings->push_back(Finding{
                kRuleLocking, path, tok.line,
                "#include " + banned +
                    " in simulated code; use src/sim/sync.h primitives"});
          }
        }
      }
      continue;
    }
    // `std :: <banned>` as three consecutive tokens.
    if (tok.kind == TokKind::kIdentifier && tok.text == "std" &&
        i + 2 < tokens.size() && tokens[i + 1].kind == TokKind::kPunct &&
        tokens[i + 1].text == "::" &&
        tokens[i + 2].kind == TokKind::kIdentifier &&
        BannedStdSyncIdents().count(tokens[i + 2].text) > 0) {
      findings->push_back(Finding{
          kRuleLocking, path, tok.line,
          "std::" + tokens[i + 2].text +
              " in simulated code; real blocking desynchronizes simulated "
              "time (use osim::SimSemaphore / SimSpinlock)"});
    }
  }
}

void CheckHeaderHygiene(const std::string& path,
                        const std::vector<Token>& tokens,
                        std::vector<Finding>* findings) {
  if (!IsHeaderPath(path) || tokens.empty()) {
    return;
  }
  bool has_pragma_once = false;
  bool has_ifndef = false;
  bool has_define = false;
  for (const Token& tok : tokens) {
    if (tok.kind != TokKind::kDirective) {
      continue;
    }
    const auto [keyword, arg] = SplitDirective(tok.text);
    if (keyword == "pragma" && arg.starts_with("once")) {
      has_pragma_once = true;
    } else if (keyword == "ifndef") {
      has_ifndef = true;
    } else if (keyword == "define" && has_ifndef) {
      has_define = true;
    }
  }
  if (!has_pragma_once && !(has_ifndef && has_define)) {
    findings->push_back(Finding{
        kRuleHeaderHygiene, path, 1,
        "header has no include guard (#pragma once or #ifndef/#define)"});
  }
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind == TokKind::kIdentifier && tokens[i].text == "using" &&
        tokens[i + 1].kind == TokKind::kIdentifier &&
        tokens[i + 1].text == "namespace") {
      findings->push_back(Finding{
          kRuleHeaderHygiene, path, tokens[i].line,
          "'using namespace' in a header leaks into every includer"});
    }
  }
}

// shared-state: mutable static/thread_local data in simulated code must
// be an osim::Shared<T> cell so SimRace observes every access.  A lexer
// cannot see scopes, so the rule triggers on the storage keywords and
// then classifies the declaration by scanning ahead: a '(' directly
// after an identifier means a function declaration (skipped); const/
// constexpr/constinit or a Shared wrapper anywhere before the terminator
// means the data is immutable or already checked (skipped).
void CheckSharedState(const std::string& path,
                      const std::vector<Token>& tokens,
                      std::vector<Finding>* findings) {
  if (!InLockingScope(path)) {
    return;
  }
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (tok.kind != TokKind::kIdentifier ||
        (tok.text != "static" && tok.text != "thread_local")) {
      continue;
    }
    // `static thread_local` / `thread_local static`: treat as one
    // declaration, anchored at the first keyword.
    std::size_t j = i + 1;
    if (j < tokens.size() && tokens[j].kind == TokKind::kIdentifier &&
        (tokens[j].text == "static" || tokens[j].text == "thread_local")) {
      ++j;
    }
    bool is_mutable_data = true;
    int depth = 0;
    // Bounded scan: a declaration that runs longer than this is not
    // something a lexer should classify; give it the benefit of doubt.
    const std::size_t limit = std::min(tokens.size(), j + 64);
    for (; j < limit; ++j) {
      const Token& ahead = tokens[j];
      if (ahead.kind == TokKind::kDirective) {
        break;  // Preprocessor boundary: stop guessing.
      }
      if (ahead.kind == TokKind::kIdentifier) {
        if (ahead.text == "const" || ahead.text == "constexpr" ||
            ahead.text == "constinit" || ahead.text == "consteval" ||
            ahead.text == "Shared") {
          is_mutable_data = false;
          break;
        }
        continue;
      }
      if (ahead.kind != TokKind::kPunct) {
        continue;
      }
      if (ahead.text == "<" || ahead.text == "[") {
        ++depth;
      } else if (ahead.text == ">" || ahead.text == "]") {
        --depth;
      } else if (depth == 0 && ahead.text == "(") {
        // `static Ret Name(...)`: a function declaration, not data.
        is_mutable_data = j > 0 && tokens[j - 1].kind == TokKind::kIdentifier
                              ? false
                              : is_mutable_data;
        break;
      } else if (depth == 0 &&
                 (ahead.text == ";" || ahead.text == "=" ||
                  ahead.text == "{")) {
        break;  // Variable terminator reached with no exemption.
      }
    }
    if (is_mutable_data && j < limit) {
      findings->push_back(Finding{
          kRuleSharedState, path, tok.line,
          "mutable " + tok.text +
              " data in simulated code; wrap it in an osim::Shared<T> "
              "race-checked cell (src/sim/race_tracker.h) so SimRace "
              "observes every access"});
    }
  }
}

// suppression-hygiene: audits every allow(...) against the raw findings
// (before suppression filtering).  A suppression naming a rule that does
// not fire on its covered lines is dead weight that silently rots; a
// misspelled rule name suppresses nothing while looking like it does.
// These findings are themselves unsuppressible.
void CheckSuppressionHygiene(
    const std::string& path,
    const std::vector<SuppressionComment>& suppressions,
    const std::vector<Finding>& raw, std::vector<Finding>* findings) {
  const std::vector<std::string> known = AllRules();
  for (const SuppressionComment& comment : suppressions) {
    for (const std::string& rule : comment.rules) {
      if (rule == kRuleSuppressionHygiene) {
        findings->push_back(Finding{
            kRuleSuppressionHygiene, path, comment.line,
            "allow(" + rule + "): suppression-hygiene findings cannot "
            "be suppressed"});
        continue;
      }
      if (std::find(known.begin(), known.end(), rule) == known.end()) {
        findings->push_back(Finding{
            kRuleSuppressionHygiene, path, comment.line,
            "allow(" + rule + ") names an unknown rule; known rules are "
            "listed by `osprof_tool lint --help`"});
        continue;
      }
      bool fires = false;
      for (const Finding& f : raw) {
        if (f.rule == rule && f.line >= comment.line &&
            f.line <= comment.end_line + 1) {
          fires = true;
          break;
        }
      }
      if (!fires) {
        findings->push_back(Finding{
            kRuleSuppressionHygiene, path, comment.line,
            "allow(" + rule + ") suppresses nothing: the rule reports no "
            "finding on the lines this comment covers"});
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.

std::vector<std::string> AllRules() {
  return {kRuleDeterminism,  kRuleProbeDiscipline,    kRuleLocking,
          kRuleHeaderHygiene, kRuleSharedState,
          kRuleSuppressionHygiene};
}

bool LintConfig::RuleEnabled(std::string_view rule) const {
  if (rules.empty()) {
    return true;
  }
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

std::vector<Finding> LintText(const std::string& path,
                              std::string_view source,
                              const LintConfig& config) {
  const LexResult lexed = Lex(source);

  const std::vector<SuppressionComment> suppression_comments =
      ParseSuppressionComments(lexed.comments);
  const SuppressionMap suppressions =
      BuildSuppressionMap(suppression_comments);

  // Raw findings are computed for every base rule regardless of the
  // config's filter: suppression-hygiene must judge an allow(locking)
  // against the locking findings even when only hygiene is requested.
  std::vector<Finding> raw;
  CheckDeterminism(path, lexed.tokens, &raw);
  CheckProbeDiscipline(path, lexed.tokens, &raw);
  CheckLocking(path, lexed.tokens, &raw);
  CheckHeaderHygiene(path, lexed.tokens, &raw);
  CheckSharedState(path, lexed.tokens, &raw);

  std::vector<Finding> findings;
  if (config.RuleEnabled(kRuleSuppressionHygiene)) {
    // Hygiene findings bypass the suppression filter by construction;
    // they are emitted before `raw` is consumed below.
    CheckSuppressionHygiene(path, suppression_comments, raw, &findings);
  }
  for (Finding& f : raw) {
    if (config.RuleEnabled(f.rule) && !Suppressed(suppressions, f.rule, f.line)) {
      findings.push_back(std::move(f));
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) {
                return a.line < b.line;
              }
              return a.rule < b.rule;
            });
  return findings;
}

std::vector<Finding> LintFile(const std::string& path,
                              const LintConfig& config) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {Finding{"io-error", path, 0, "cannot read file"}};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LintText(path, buffer.str(), config);
}

LintRun LintPaths(const std::vector<std::string>& paths,
                  const LintConfig& config) {
  std::vector<std::string> files;
  LintRun run;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (auto it = fs::recursive_directory_iterator(
               path, fs::directory_options::skip_permission_denied, ec);
           it != fs::recursive_directory_iterator(); ++it) {
        if (!it->is_regular_file(ec)) {
          continue;
        }
        const std::string p = it->path().generic_string();
        if (p.ends_with(".h") || p.ends_with(".cc") || p.ends_with(".cpp")) {
          files.push_back(p);
        }
      }
    } else if (fs::is_regular_file(path, ec)) {
      files.push_back(path);
    } else {
      run.findings.push_back(
          Finding{"io-error", path, 0, "no such file or directory"});
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  for (const std::string& file : files) {
    std::vector<Finding> found = LintFile(file, config);
    run.findings.insert(run.findings.end(),
                        std::make_move_iterator(found.begin()),
                        std::make_move_iterator(found.end()));
    ++run.files_scanned;
  }
  return run;
}

std::string RenderFindings(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message + "\n";
  }
  return out;
}

osjson::Value FindingsJson(const LintRun& run) {
  osjson::Value doc = osjson::Value::Object();
  doc.Set("schema", osjson::Value::Str("osprof-lint-v1"));
  doc.Set("files_scanned", osjson::Value::Int(run.files_scanned));
  doc.Set("finding_count",
          osjson::Value::Int(static_cast<std::int64_t>(run.findings.size())));

  std::map<std::string, int> counts;
  for (const std::string& rule : AllRules()) {
    counts[rule] = 0;
  }
  for (const Finding& f : run.findings) {
    ++counts[f.rule];
  }
  osjson::Value by_rule = osjson::Value::Object();
  for (const auto& [rule, count] : counts) {
    by_rule.Set(rule, osjson::Value::Int(count));
  }
  doc.Set("counts", std::move(by_rule));

  osjson::Value list = osjson::Value::Array();
  for (const Finding& f : run.findings) {
    osjson::Value entry = osjson::Value::Object();
    entry.Set("rule", osjson::Value::Str(f.rule));
    entry.Set("file", osjson::Value::Str(f.file));
    entry.Set("line", osjson::Value::Int(f.line));
    entry.Set("message", osjson::Value::Str(f.message));
    list.Append(std::move(entry));
  }
  doc.Set("findings", std::move(list));
  return doc;
}

}  // namespace oslint
