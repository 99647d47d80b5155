// osprof_lint rule-by-rule tests against the seeded-violation fixture
// corpus in tests/lint/fixtures/, plus the self-check that the real tree
// lints clean.  Fixtures use the .src extension precisely so the
// directory walker (which lints .h/.cc/.cpp) never scans the seeded
// violations when CI lints tests/.

#include "src/lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/lint/lexer.h"

namespace oslint {
namespace {

std::string FixtureDir() {
  return std::string(OSPROF_SOURCE_DIR) + "/tests/lint/fixtures/";
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixtureDir() + name);
  EXPECT_TRUE(in) << "missing fixture " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<int> LinesOfRule(const std::vector<Finding>& findings,
                             const std::string& rule) {
  std::vector<int> lines;
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, rule) << f.file << ":" << f.line << ": " << f.message;
    if (f.rule == rule) {
      lines.push_back(f.line);
    }
  }
  return lines;
}

// --- Lexer ----------------------------------------------------------------

TEST(LintLexer, SeparatesCommentsStringsAndIdentifiers) {
  const LexResult lexed = Lex(
      "int x = 1; // trailing rand()\n"
      "const char* s = \"rand()\";\n"
      "/* block\n   spans lines */ int y;\n");
  for (const Token& t : lexed.tokens) {
    EXPECT_NE(t.text, "rand") << "banned name leaked from comment/string";
  }
  ASSERT_EQ(lexed.comments.size(), 2u);
  EXPECT_EQ(lexed.comments[0].line, 1);
  EXPECT_EQ(lexed.comments[1].line, 3);
  EXPECT_EQ(lexed.comments[1].end_line, 4);
}

TEST(LintLexer, DirectivesAreWholeLineTokens) {
  const LexResult lexed = Lex("#include <mutex>\n#pragma once\nint x;\n");
  ASSERT_GE(lexed.tokens.size(), 2u);
  EXPECT_EQ(lexed.tokens[0].kind, TokKind::kDirective);
  EXPECT_EQ(lexed.tokens[0].text, "include <mutex>");
  EXPECT_EQ(lexed.tokens[1].kind, TokKind::kDirective);
  EXPECT_EQ(lexed.tokens[1].text, "pragma once");
}

TEST(LintLexer, RawStringsDoNotLeakContents) {
  const LexResult lexed = Lex("auto s = R\"(time( rand( )\"; int z;\n");
  for (const Token& t : lexed.tokens) {
    EXPECT_NE(t.text, "time");
    EXPECT_NE(t.text, "rand");
  }
}

TEST(LintLexer, CrlfLineCommentsDropTheCarriageReturn) {
  const LexResult lexed =
      Lex("int x;  // osprof-lint: allow(locking)\r\nint y;\r\n");
  ASSERT_EQ(lexed.comments.size(), 1u);
  // The '\r' belongs to the line ending, not the comment text; a stray
  // trailing '\r' would break suppression parsing on CRLF sources.
  EXPECT_EQ(lexed.comments[0].text.back(), ')');
  EXPECT_EQ(lexed.comments[0].line, 1);
  ASSERT_FALSE(lexed.tokens.empty());
  EXPECT_EQ(lexed.tokens.back().line, 2);
}

TEST(LintLexer, DirectiveContinuationsSpanLfAndCrlfLines) {
  const LexResult lf = Lex("#define ADD(a, b) \\\n  ((a) + (b))\nint x;\n");
  ASSERT_GE(lf.tokens.size(), 2u);
  EXPECT_EQ(lf.tokens[0].kind, TokKind::kDirective);
  EXPECT_EQ(lf.tokens[1].text, "int");
  EXPECT_EQ(lf.tokens[1].line, 3);

  const LexResult crlf =
      Lex("#define ADD(a, b) \\\r\n  ((a) + (b))\r\nint x;\r\n");
  ASSERT_GE(crlf.tokens.size(), 2u);
  EXPECT_EQ(crlf.tokens[0].kind, TokKind::kDirective);
  EXPECT_EQ(crlf.tokens[1].text, "int");
  EXPECT_EQ(crlf.tokens[1].line, 3);
}

// --- determinism ----------------------------------------------------------

TEST(LintRules, DeterminismFlagsWallClockAndRandomness) {
  const std::string src = ReadFixture("determinism_violation.src");
  const std::vector<Finding> findings = LintText("src/fs/bad.cc", src);
  EXPECT_EQ(LinesOfRule(findings, kRuleDeterminism),
            (std::vector<int>{9, 14, 18}));
}

TEST(LintRules, DeterminismAllowlistsRngAndClock) {
  const std::string src = ReadFixture("determinism_violation.src");
  LintConfig only_determinism;
  only_determinism.rules = {kRuleDeterminism};
  EXPECT_TRUE(LintText("src/core/clock.h", src, only_determinism).empty());
  EXPECT_TRUE(LintText("src/sim/rng.h", src, only_determinism).empty());
  EXPECT_TRUE(LintText("src/core/clock.cc", src, only_determinism).empty());
}

// --- probe-discipline -----------------------------------------------------

TEST(LintRules, ProbeDisciplineFlagsStringLiteralOpNames) {
  const std::string src = ReadFixture("probe_discipline_violation.src");
  const std::vector<Finding> findings = LintText("src/fs/bad.cc", src);
  EXPECT_EQ(LinesOfRule(findings, kRuleProbeDiscipline),
            (std::vector<int>{5, 6, 10, 14, 21}));
}

// The deprecated string shims are gone, and with them the tests/
// carve-out: the string-key subcheck applies tree-wide, so a test file
// gets exactly the findings a src/ file does.
TEST(LintRules, ProbeDisciplineAppliesToTests) {
  const std::string src = ReadFixture("probe_discipline_violation.src");
  const std::vector<Finding> findings = LintText("tests/profilers/bad.cc", src);
  EXPECT_EQ(LinesOfRule(findings, kRuleProbeDiscipline),
            (std::vector<int>{5, 6, 10, 14, 21}));
}

TEST(LintRules, ProbeDisciplineFlagsManualRequestContextFrames) {
  const std::string src = ReadFixture("request_context_violation.src");
  const std::vector<Finding> findings = LintText("src/fs/bad.cc", src);
  EXPECT_EQ(LinesOfRule(findings, kRuleProbeDiscipline),
            (std::vector<int>{5, 6, 7, 11}));
}

TEST(LintRules, ProbeDisciplineAllowsRequestContextOnTheSpine) {
  const std::string src = ReadFixture("request_context_violation.src");
  LintConfig only_probe;
  only_probe.rules = {kRuleProbeDiscipline};
  for (const char* spine : {"src/sim/request_context.cc", "src/sim/kernel.h",
                            "src/profilers/sim_profiler.h",
                            "src/profilers/sim_profiler.cc",
                            "src/sim/lock_order.cc"}) {
    EXPECT_TRUE(LintText(spine, src, only_probe).empty()) << spine;
  }
}

// --- locking --------------------------------------------------------------

TEST(LintRules, LockingFlagsRealPrimitivesInScopedDirs) {
  const std::string src = ReadFixture("locking_violation.src");
  const std::vector<Finding> findings = LintText("src/sim/bad.cc", src);
  EXPECT_EQ(LinesOfRule(findings, kRuleLocking),
            (std::vector<int>{4, 5, 8, 12, 12, 16}));
}

TEST(LintRules, LockingIsScopedToSimFsNet) {
  const std::string src = ReadFixture("locking_violation.src");
  // The runner and core are allowed real threads (trial pool, sharded
  // histograms) -- the same source is clean outside the scoped dirs.
  EXPECT_TRUE(LintText("src/runner/bad.cc", src).empty());
  EXPECT_TRUE(LintText("src/core/bad.cc", src).empty());
  EXPECT_FALSE(LintText("src/fs/bad.cc", src).empty());
  EXPECT_FALSE(LintText("src/net/bad.cc", src).empty());
}

// --- header-hygiene -------------------------------------------------------

TEST(LintRules, HeaderHygieneFlagsMissingGuardAndUsingNamespace) {
  const std::string src = ReadFixture("header_hygiene_violation.src");
  const std::vector<Finding> findings = LintText("bad.h", src);
  EXPECT_EQ(LinesOfRule(findings, kRuleHeaderHygiene),
            (std::vector<int>{1, 5}));
  // The same content as a .cc file is fine.
  EXPECT_TRUE(LintText("bad.cc", src).empty());
}

// --- shared-state ---------------------------------------------------------

TEST(LintRules, SharedStateFlagsMutableStaticsOnly) {
  const std::string src = ReadFixture("shared_state_violation.src");
  const std::vector<Finding> findings = LintText("src/sim/bad.cc", src);
  // const/constexpr data, function declarations, Shared cells and the
  // allow()ed registry are all exempt.
  EXPECT_EQ(LinesOfRule(findings, kRuleSharedState),
            (std::vector<int>{6, 7}));
}

TEST(LintRules, SharedStateIsScopedToSimFsNet) {
  const std::string src = ReadFixture("shared_state_violation.src");
  LintConfig only_shared;
  only_shared.rules = {kRuleSharedState};
  EXPECT_TRUE(LintText("src/tools/bad.cc", src, only_shared).empty());
  EXPECT_TRUE(LintText("src/runner/bad.cc", src, only_shared).empty());
  EXPECT_FALSE(LintText("src/fs/bad.cc", src, only_shared).empty());
  EXPECT_FALSE(LintText("src/net/bad.cc", src, only_shared).empty());
}

// --- suppression-hygiene --------------------------------------------------

TEST(LintRules, SuppressionHygieneFlagsUnknownRules) {
  const std::vector<Finding> findings = LintText(
      "src/fs/bad.cc",
      "// osprof-lint: allow(determinsm)\n"
      "long T() { return time(nullptr); }\n");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, kRuleSuppressionHygiene);
  EXPECT_NE(findings[0].message.find("unknown rule"), std::string::npos);
  // The misspelled allow suppresses nothing: determinism still fires.
  EXPECT_EQ(findings[1].rule, kRuleDeterminism);
}

TEST(LintRules, SuppressionHygieneCannotSuppressItself) {
  const std::vector<Finding> findings =
      LintText("src/fs/bad.cc",
               "// osprof-lint: allow(suppression-hygiene)\nint x = 0;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, kRuleSuppressionHygiene);
  EXPECT_NE(findings[0].message.find("cannot be suppressed"),
            std::string::npos);
}

TEST(LintRules, SuppressionHygieneIgnoresDocumentationPlaceholders) {
  // Prose that *shows* the comment form (like lint.h's own header) is
  // not a suppression: placeholder names are not kebab-case identifiers.
  EXPECT_TRUE(
      LintText("src/fs/doc.cc",
               "// Suppress via osprof-lint: allow(rule[, rule...]).\n"
               "// osprof-lint: allow(...)\n"
               "int x = 0;\n")
          .empty());
}

TEST(LintRules, SuppressionHygieneSurvivesRuleFiltering) {
  // A stale allow is reported even when only the hygiene rule runs: raw
  // findings are computed for every rule before the config filter.
  LintConfig only_hygiene;
  only_hygiene.rules = {kRuleSuppressionHygiene};
  const std::vector<Finding> findings =
      LintText("src/sim/bad.cc", "// osprof-lint: allow(locking)\nint x = 0;\n",
               only_hygiene);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, kRuleSuppressionHygiene);
  EXPECT_NE(findings[0].message.find("suppresses nothing"), std::string::npos);
}

// --- suppressions ---------------------------------------------------------

TEST(LintRules, SuppressionsCoverOwnLineAndNextAndAreRuleSpecific) {
  const std::string src = ReadFixture("suppressed.src");
  const std::vector<Finding> findings = LintText("src/fs/bad.cc", src);
  // Everything is suppressed except the wrong-rule allow at the bottom:
  // it fails to cover the determinism finding on the next line, and the
  // stale allow(locking) itself draws a suppression-hygiene finding.
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, kRuleSuppressionHygiene);
  EXPECT_EQ(findings[0].line, 22);
  EXPECT_NE(findings[0].message.find("suppresses nothing"),
            std::string::npos);
  EXPECT_EQ(findings[1].rule, kRuleDeterminism);
  EXPECT_EQ(findings[1].line, 23);
}

// --- clean file -----------------------------------------------------------

TEST(LintRules, CleanFileHasNoFindingsUnderAnyPath) {
  const std::string src = ReadFixture("clean.src");
  EXPECT_TRUE(LintText("src/sim/clean.h", src).empty());
  EXPECT_TRUE(LintText("src/fs/clean.cc", src).empty());
  EXPECT_TRUE(LintText("clean.h", src).empty());
}

// --- rule filtering -------------------------------------------------------

TEST(LintConfigTest, RuleFilterRunsOnlySelectedRules) {
  const std::string src = ReadFixture("locking_violation.src");
  LintConfig only_headers;
  only_headers.rules = {kRuleHeaderHygiene};
  // The locking violations are invisible to a header-hygiene-only run
  // (the .cc path also has no header findings).
  EXPECT_TRUE(LintText("src/sim/bad.cc", src, only_headers).empty());
  LintConfig only_locking;
  only_locking.rules = {kRuleLocking};
  EXPECT_EQ(LintText("src/sim/bad.cc", src, only_locking).size(), 6u);
}

// --- JSON and text rendering ----------------------------------------------

TEST(LintOutput, JsonReportCarriesSchemaCountsAndFindings) {
  LintRun run;
  run.files_scanned = 3;
  run.findings.push_back(
      Finding{kRuleDeterminism, "a.cc", 7, "call to wall-clock"});
  const std::string json = FindingsJson(run).Dump();
  EXPECT_NE(json.find("\"osprof-lint-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"determinism\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"a.cc\""), std::string::npos);
}

TEST(LintOutput, TextRenderingIsFileLineRuleMessage) {
  const std::string text = RenderFindings(
      {Finding{kRuleLocking, "src/sim/x.cc", 12, "std::mutex in sim"}});
  EXPECT_EQ(text, "src/sim/x.cc:12: [locking] std::mutex in sim\n");
}

// --- walker and self-check ------------------------------------------------

TEST(LintPathsTest, WalkerSkipsNonSourceExtensions) {
  // The fixture directory holds only .src files; the walker must scan
  // nothing there.
  const LintRun run = LintPaths({FixtureDir()});
  EXPECT_EQ(run.files_scanned, 0);
  EXPECT_TRUE(run.findings.empty());
}

TEST(LintPathsTest, MissingPathIsAnIoError) {
  const LintRun run = LintPaths({"no/such/path"});
  ASSERT_EQ(run.findings.size(), 1u);
  EXPECT_EQ(run.findings[0].rule, "io-error");
}

// The linter's own acceptance criterion: the real tree is clean.  Any
// regression that reintroduces a wall clock, a string-literal op name, a
// real mutex in simulated code or an unguarded header fails here first.
TEST(LintSelfCheck, RepositorySourcesLintClean) {
  const std::string root = std::string(OSPROF_SOURCE_DIR);
  const LintRun run =
      LintPaths({root + "/src", root + "/tests", root + "/bench"});
  EXPECT_GT(run.files_scanned, 100);
  EXPECT_TRUE(run.findings.empty()) << RenderFindings(run.findings);
}

}  // namespace
}  // namespace oslint
