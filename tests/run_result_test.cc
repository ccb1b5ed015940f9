/// One RunResult for all five join engines. On a few StandardRoster()
/// queries every engine's summary agrees with its own load tracker, a
/// charge-only run charges exactly what the collecting run charges, and a
/// collecting run returns GenericJoin's rows.

#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/acyclic_join.h"
#include "core/one_round.h"
#include "core/output_balanced.h"
#include "core/run_result.h"
#include "core/yannakakis.h"
#include "query/catalog.h"
#include "query/join_tree.h"
#include "relation/oracle.h"
#include "workload/generators.h"

namespace coverpack {
namespace {

constexpr uint32_t kServers = 16;

enum class Engine {
  kAcyclic,
  kOneRoundSkewAware,
  kOneRoundVanilla,
  kOutputBalanced,
  kYannakakis,
};

std::string EngineName(Engine engine) {
  switch (engine) {
    case Engine::kAcyclic: return "acyclic";
    case Engine::kOneRoundSkewAware: return "one_round_skew_aware";
    case Engine::kOneRoundVanilla: return "one_round_vanilla";
    case Engine::kOutputBalanced: return "output_balanced";
    case Engine::kYannakakis: return "yannakakis";
  }
  return "unknown";
}

/// Names the parameter in test output and ctest names.
void PrintTo(Engine engine, std::ostream* os) { *os << EngineName(engine); }

RunResult RunEngine(Engine engine, const Hypergraph& query, const Instance& instance,
                    bool collect) {
  switch (engine) {
    case Engine::kAcyclic: {
      AcyclicRunOptions options;
      options.collect = collect;
      options.p = kServers;
      return ComputeAcyclicJoin(query, instance, options);
    }
    case Engine::kOneRoundSkewAware:
      return ComputeOneRoundSkewAware(query, instance, kServers, {.collect = collect});
    case Engine::kOneRoundVanilla:
      return ComputeOneRoundVanilla(query, instance, kServers, collect);
    case Engine::kOutputBalanced:
      return ComputeOutputBalanced(query, instance, kServers, {.collect = collect});
    case Engine::kYannakakis:
      return ComputeYannakakis(query, instance, kServers, collect);
  }
  return {};
}

bool IsOneRound(Engine engine) {
  return engine == Engine::kOneRoundSkewAware || engine == Engine::kOneRoundVanilla;
}

struct Case {
  std::string name;
  Hypergraph query;
  Instance instance;
};

/// The roster queries `engine` runs: four acyclic ones, and for the
/// one-round engines two cyclic ones too. One seeded instance each.
std::vector<Case> CasesFor(Engine engine) {
  const std::set<std::string> kNames = {"semijoin(R1(A),R2(A,B),R3(B))",
                                        "line3",
                                        "star4",
                                        "alpha_not_berge",
                                        "triangle",
                                        "cycle4"};
  std::vector<Case> cases;
  for (catalog::NamedQuery& entry : catalog::StandardRoster()) {
    if (kNames.count(entry.name) == 0) continue;
    if (!IsOneRound(engine) && !JoinTree::Build(entry.query)) continue;
    Rng rng(17);
    Instance instance = workload::UniformInstance(entry.query, 40, 6, &rng);
    cases.push_back({entry.name, std::move(entry.query), std::move(instance)});
  }
  return cases;
}

/// What every run reports whether or not it collects.
void ExpectSummary(Engine engine, const RunResult& run, const std::string& label) {
  EXPECT_EQ(run.max_load, run.load_tracker.MaxLoad()) << label;
  EXPECT_EQ(run.total_communication, run.load_tracker.TotalCommunication()) << label;
  EXPECT_GT(run.max_load, 0u) << label;
  EXPECT_GT(run.servers_used, 0u) << label;
  // The one-round engines set their one round themselves; the struct's
  // default is 0.
  if (IsOneRound(engine)) {
    EXPECT_EQ(run.rounds, 1u) << label;
  } else {
    EXPECT_GT(run.rounds, 1u) << label;
  }
  // Only the multi-round run has an L.
  EXPECT_EQ(run.load_threshold > 0, engine == Engine::kAcyclic) << label;
}

class RunResultTest : public ::testing::TestWithParam<Engine> {};

TEST_P(RunResultTest, CollectedRowsAreTheJoin) {
  const Engine engine = GetParam();
  const std::vector<Case> cases = CasesFor(engine);
  ASSERT_EQ(cases.size(), IsOneRound(engine) ? 6u : 4u);
  for (const Case& c : cases) {
    const RunResult run = RunEngine(engine, c.query, c.instance, /*collect=*/true);
    ExpectSummary(engine, run, c.name);
    const Relation expected = GenericJoin(c.query, c.instance);
    EXPECT_FALSE(expected.empty()) << c.name;
    EXPECT_EQ(run.output_count, run.results.size()) << c.name;
    EXPECT_TRUE(run.results.SameContentAs(expected)) << c.name;
  }
}

TEST_P(RunResultTest, ChargeOnlyChargesWhatCollectingCharges) {
  const Engine engine = GetParam();
  for (const Case& c : CasesFor(engine)) {
    const RunResult collected = RunEngine(engine, c.query, c.instance, /*collect=*/true);
    const RunResult charged = RunEngine(engine, c.query, c.instance, /*collect=*/false);
    ExpectSummary(engine, charged, c.name);
    EXPECT_EQ(charged.rounds, collected.rounds) << c.name;
    EXPECT_EQ(charged.max_load, collected.max_load) << c.name;
    EXPECT_EQ(charged.servers_used, collected.servers_used) << c.name;
    EXPECT_EQ(charged.load_threshold, collected.load_threshold) << c.name;
    EXPECT_TRUE(charged.load_tracker == collected.load_tracker) << c.name;
    EXPECT_TRUE(charged.results.empty()) << c.name;
    // Output-balanced counts its output from its weights in both modes;
    // the other engines count the rows they kept.
    EXPECT_EQ(charged.output_count,
              engine == Engine::kOutputBalanced ? collected.output_count : 0u)
        << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, RunResultTest,
                         ::testing::Values(Engine::kAcyclic, Engine::kOneRoundSkewAware,
                                           Engine::kOneRoundVanilla, Engine::kOutputBalanced,
                                           Engine::kYannakakis),
                         [](const ::testing::TestParamInfo<Engine>& info) {
                           return EngineName(info.param);
                         });

}  // namespace
}  // namespace coverpack
