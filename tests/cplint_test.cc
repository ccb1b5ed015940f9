/// \file cplint_test.cc
/// \brief Proves every cplint rule live: fires on the bad fixture, stays
/// quiet on the good one, and honors `// cplint: allow(<rule>)`.

#include "cplint.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace coverpack {
namespace cplint {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(CPLINT_FIXTURE_DIR) + "/" + name;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream stream(FixturePath(name), std::ios::binary);
  EXPECT_TRUE(stream.good()) << "missing fixture " << name;
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  return buffer.str();
}

std::set<std::string> RuleNames(const std::vector<Finding>& findings) {
  std::set<std::string> names;
  for (const auto& finding : findings) names.insert(finding.rule);
  return names;
}

size_t CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<size_t>(std::count_if(findings.begin(), findings.end(),
                                           [&](const Finding& f) { return f.rule == rule; }));
}

struct RuleFixture {
  std::string rule;
  std::string stem;       // fixture file stem
  std::string extension;  // ".cc" or ".h"
};

const std::vector<RuleFixture>& Fixtures() {
  static const std::vector<RuleFixture> kFixtures = {
      {"charge-choke-point", "charge_choke_point", ".cc"},
      {"no-wall-clock", "no_wall_clock", ".cc"},
      {"no-unseeded-rng", "no_unseeded_rng", ".cc"},
      {"no-unordered-iteration", "no_unordered_iteration", ".cc"},
      {"audit-pairing", "audit_pairing", ".cc"},
      {"include-hygiene", "include_hygiene", ".h"},
  };
  return kFixtures;
}

TEST(CplintCatalog, HasAtLeastSixRulesAndFixturesCoverThem) {
  EXPECT_GE(Rules().size(), 6u);
  for (const auto& fixture : Fixtures()) {
    EXPECT_TRUE(IsRule(fixture.rule)) << fixture.rule;
  }
  EXPECT_FALSE(IsRule("no-such-rule"));
}

TEST(CplintRules, BadFixturesFire) {
  for (const auto& fixture : Fixtures()) {
    const auto findings = LintFile(FixturePath(fixture.stem + "_bad" + fixture.extension), {});
    EXPECT_TRUE(RuleNames(findings).count(fixture.rule) > 0)
        << fixture.rule << " did not fire on its bad fixture";
    for (const auto& finding : findings) {
      EXPECT_GT(finding.line, 0u);
      EXPECT_FALSE(finding.message.empty());
    }
  }
}

TEST(CplintRules, GoodFixturesStayQuiet) {
  for (const auto& fixture : Fixtures()) {
    const auto findings =
        LintFile(FixturePath(fixture.stem + "_good" + fixture.extension), {});
    EXPECT_TRUE(findings.empty())
        << fixture.rule << " false-positive: " << findings[0].rule << " at line "
        << findings[0].line << ": " << findings[0].message;
  }
}

TEST(CplintRules, AllowDirectiveSuppresses) {
  for (const auto& fixture : Fixtures()) {
    const auto findings =
        LintFile(FixturePath(fixture.stem + "_allowed" + fixture.extension), {});
    EXPECT_TRUE(findings.empty())
        << fixture.rule << " ignored its allow(): " << findings[0].rule << " at line "
        << findings[0].line;
  }
}

TEST(CplintRules, RuleFilterSelectsSubset) {
  const std::string bad = ReadFixture("charge_choke_point_bad.cc");
  // Filtered to an unrelated rule, the charge leak must not be reported.
  EXPECT_TRUE(LintContent("src/foo.cc", bad, {"no-wall-clock"}).empty());
  // Filtered to the matching rule, it must be.
  EXPECT_FALSE(LintContent("src/foo.cc", bad, {"charge-choke-point"}).empty());
}

TEST(CplintRules, ChargeChokePointExemptsExchange) {
  const std::string bad = ReadFixture("charge_choke_point_bad.cc");
  EXPECT_FALSE(LintContent("src/other.cc", bad, {"charge-choke-point"}).empty());
  EXPECT_TRUE(LintContent("src/mpc/exchange.cc", bad, {"charge-choke-point"}).empty());
}

TEST(CplintRules, WallClockRuleExemptsNoFile) {
  // The timer (ScopedTimer, util/ledger.cc) reads steady_clock, which the
  // rule never matches, so no file needs an exemption: every violating line
  // fires in the timer's own file as anywhere else, and monotonic timing
  // passes there.
  const std::string bad = ReadFixture("no_wall_clock_bad.cc");
  EXPECT_EQ(CountRule(LintContent("src/other.cc", bad, {"no-wall-clock"}), "no-wall-clock"), 3u);
  EXPECT_EQ(CountRule(LintContent("src/util/ledger.cc", bad, {"no-wall-clock"}), "no-wall-clock"),
            3u);
  EXPECT_TRUE(LintContent("src/util/ledger.cc", ReadFixture("no_wall_clock_good.cc"),
                          {"no-wall-clock"})
                  .empty());
}

TEST(CplintRules, IncludeHygieneExemptsDefiningHeader) {
  // util/mutex.h itself mentions Mutex without including util/mutex.h.
  const std::string content = "class Mutex {};\n";
  EXPECT_FALSE(LintContent("src/util/other.h", content, {"include-hygiene"}).empty());
  EXPECT_TRUE(LintContent("src/util/mutex.h", content, {"include-hygiene"}).empty());
}

TEST(CplintRules, DeterminismRulesGuardSubsystemPaths) {
  // Plan decisions, the service's simulated clock and client streams, and
  // the cluster's content-keyed speeds and migrations are byte-diffed
  // across thread counts and fault schedules, which only holds while these
  // three rules cover src/planner/, src/service/ and src/cluster/. Lint each
  // generic fixture under every such path: every violating line of the
  // bad one fires, filtered and unfiltered (counted, so one construct
  // cannot hide another that stopped firing), and the good one stays
  // quiet.
  const char* const kSubsystemPaths[] = {
      "src/service/query_service.cc", "src/service/workload_sim.cc",
      "src/planner/cost_model.cc",    "src/planner/stats.cc",
      "src/planner/join_order_dp.cc", "src/cluster/cluster_profile.cc",
      "src/cluster/elastic.cc",       "src/cluster/routing.cc",
  };
  const struct {
    std::string rule;
    std::string stem;
    size_t violating_lines;  // in the bad fixture
  } kRules[] = {
      {"no-wall-clock", "no_wall_clock", 3},
      {"no-unseeded-rng", "no_unseeded_rng", 4},
      {"no-unordered-iteration", "no_unordered_iteration", 2},
  };
  for (const auto& r : kRules) {
    const std::string bad = ReadFixture(r.stem + "_bad.cc");
    const std::string good = ReadFixture(r.stem + "_good.cc");
    for (const char* path : kSubsystemPaths) {
      EXPECT_EQ(CountRule(LintContent(path, bad, {r.rule}), r.rule), r.violating_lines)
          << r.rule << " on " << path;
      EXPECT_EQ(CountRule(LintContent(path, bad, {}), r.rule), r.violating_lines)
          << r.rule << " unfiltered on " << path;
      EXPECT_TRUE(LintContent(path, good, {}).empty())
          << r.rule << " good fixture not quiet on " << path;
    }
  }
}

TEST(CplintRules, NoPerRowAppendGuardsHotPaths) {
  // The columnar substrate's hot-path contract: src/mpc/ and src/query/
  // append in bulk only (AppendRows/AppendUninitialized). The rule is
  // path-scoped, so the fixtures are linted under explicit hot-path names
  // and proven inert everywhere else (relation/ operators legitimately
  // build rows one at a time in cold constructors and tests).
  const std::string bad = ReadFixture("no_per_row_append_bad.cc");
  const std::string good = ReadFixture("no_per_row_append_good.cc");
  const std::string allowed = ReadFixture("no_per_row_append_allowed.cc");
  for (const char* hot : {"src/mpc/primitives.cc", "src/query/hypergraph.cc"}) {
    EXPECT_TRUE(RuleNames(LintContent(hot, bad, {"no-per-row-append"}))
                    .count("no-per-row-append") > 0)
        << "no-per-row-append did not fire on " << hot;
    // Unfiltered, the full rule catalog must also surface the violation.
    EXPECT_TRUE(
        RuleNames(LintContent(hot, bad, {})).count("no-per-row-append") > 0);
    EXPECT_TRUE(LintContent(hot, good, {"no-per-row-append"}).empty())
        << "bulk appends false-positive on " << hot;
    EXPECT_TRUE(LintContent(hot, allowed, {"no-per-row-append"}).empty())
        << "allow() directive ignored on " << hot;
  }
  // AppendRows must never be mistaken for the per-row call.
  EXPECT_TRUE(LintContent("src/mpc/exchange.cc",
                          "void F(Relation* r, const Value* v, size_t n) {\n"
                          "  r->AppendRows(v, n);\n"
                          "}\n",
                          {"no-per-row-append"})
                  .empty());
  // Outside the hot paths the rule stays quiet.
  EXPECT_TRUE(LintContent("src/relation/operators.cc", bad, {"no-per-row-append"}).empty());
  EXPECT_TRUE(LintContent("tests/relation_test.cc", bad, {"no-per-row-append"}).empty());
}

TEST(CplintStrip, DropsCommentsAndLiteralContents) {
  const std::string content =
      "int a = 1;  // trailing time( comment\n"
      "/* block rand() */ int b = 2;\n"
      "const char* s = \"system_clock\";\n"
      "const char* r = R\"(random_device)\";\n";
  const auto lines = StripForAnalysis(content);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0].find("time("), std::string::npos);
  EXPECT_EQ(lines[1].find("rand()"), std::string::npos);
  EXPECT_NE(lines[1].find("int b = 2;"), std::string::npos);
  EXPECT_EQ(lines[2].find("system_clock"), std::string::npos);
  EXPECT_EQ(lines[3].find("random_device"), std::string::npos);
}

TEST(CplintStrip, CommentsCannotSuppressViaStrippedText) {
  // The directive parser reads raw lines; stripped text drops comments, so a
  // rule-token inside a comment never fires and an allow() still works.
  const std::string content =
      "// mentions tracker.Add( in prose only\n"
      "int x = 0;\n";
  EXPECT_TRUE(LintContent("src/foo.cc", content, {"charge-choke-point"}).empty());
}

TEST(CplintIo, UnreadableFileReportsIoError) {
  const auto findings = LintFile(FixturePath("does_not_exist.cc"), {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "io-error");
}

TEST(CplintCollect, FindsFixtureSourcesSorted) {
  const auto sources = CollectSources(CPLINT_FIXTURE_DIR);
  EXPECT_GE(sources.size(), 21u);
  for (size_t i = 1; i < sources.size(); ++i) EXPECT_LE(sources[i - 1], sources[i]);
}

}  // namespace
}  // namespace cplint
}  // namespace coverpack
