#include "core/acyclic_join.h"

#include <gtest/gtest.h>

#include "core/load_planner.h"
#include "query/catalog.h"
#include "query/parser.h"
#include "relation/oracle.h"
#include "workload/generators.h"

namespace coverpack {
namespace {

struct Case {
  const char* text;
  RunPolicy policy;
  uint64_t seed;
  double skew;  // 0 = uniform
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.text << (c.policy == RunPolicy::kOptimal ? " optimal" : " conservative") << " seed "
      << c.seed << " skew " << c.skew;
}

class AcyclicJoinCorrectness : public ::testing::TestWithParam<Case> {};

/// The central correctness property: the multi-round MPC run emits exactly
/// the oracle's join results, whatever the policy, instance, or skew.
TEST_P(AcyclicJoinCorrectness, MatchesOracle) {
  const Case& c = GetParam();
  Hypergraph q = ParseQuery(c.text);
  Rng rng(c.seed);
  Instance instance = c.skew == 0.0 ? workload::UniformInstance(q, 120, 12, &rng)
                                    : workload::ZipfInstance(q, 120, 20, c.skew, &rng);
  AcyclicRunOptions options;
  options.policy = c.policy;
  options.collect = true;
  options.p = 16;
  AcyclicRunResult run = ComputeAcyclicJoin(q, instance, options);
  Relation expected = GenericJoin(q, instance);
  EXPECT_EQ(run.output_count, expected.size());
  EXPECT_TRUE(run.results.SameContentAs(expected));
  EXPECT_GT(run.load_threshold, 0u);
  EXPECT_LT(run.rounds, 64u);
}

constexpr const char* kLine3 = "R1(A,B), R2(B,C), R3(C,D)";
constexpr const char* kPath5 = "R1(A,B), R2(B,C), R3(C,D), R4(D,E), R5(E,F)";
constexpr const char* kStar = "R1(A,B), R2(A,C), R3(A,D)";
constexpr const char* kStarDual = "R0(A,B,C), R1(A), R2(B), R3(C)";
constexpr const char* kAlphaNotBerge = "R0(A,B,C), R1(A,B,D), R2(B,C,E), R3(A,C,F)";
constexpr const char* kDisconnected = "R1(A,B), R2(B,C), R3(X,Y)";
constexpr const char* kFig4 =
    "e0(A,B,C,H), e1(A,B,D), e2(B,C,E), e3(A,C,F), e4(A,B,H,J), e5(A,H,I), e6(A,I,K), e7(A,I,G)";

std::vector<Case> MakeCases() {
  std::vector<Case> cases;
  for (const char* text :
       {kLine3, kPath5, kStar, kStarDual, kAlphaNotBerge, kDisconnected, kFig4}) {
    for (RunPolicy policy : {RunPolicy::kConservative, RunPolicy::kOptimal}) {
      for (uint64_t seed : {1u, 2u}) {
        cases.push_back({text, policy, seed, 0.0});
      }
      cases.push_back({text, policy, 7u, 1.1});  // heavy skew exercises H(x)
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AcyclicJoinCorrectness, ::testing::ValuesIn(MakeCases()));

TEST(AcyclicJoinTest, EmptyInputEmptyOutput) {
  Hypergraph q = catalog::Line3();
  Instance instance(q);
  instance[0].AppendRow({1, 2});
  AcyclicRunOptions options;
  AcyclicRunResult run = ComputeAcyclicJoin(q, instance, options);
  EXPECT_EQ(run.output_count, 0u);
}

TEST(AcyclicJoinTest, SingleRelationBaseCase) {
  Hypergraph q = ParseQuery("R1(A,B)");
  Instance instance(q);
  for (Value v = 0; v < 50; ++v) instance[0].AppendRow({v, v + 1});
  AcyclicRunOptions options;
  options.p = 4;
  AcyclicRunResult run = ComputeAcyclicJoin(q, instance, options);
  EXPECT_EQ(run.output_count, 50u);
  EXPECT_TRUE(run.results.SameContentAs(instance[0]));
}

TEST(AcyclicJoinTest, HeavyValueIsolatedCorrectly) {
  // One value of B is extremely heavy, yet at p = 8 the run never takes
  // the heavy branch: this checks the light groups on a skewed instance.
  // HeavyChildResultsCarryTheirConstant below reaches the heavy branch.
  Hypergraph q = catalog::Line3();
  Instance instance(q);
  for (Value v = 0; v < 200; ++v) {
    instance[0].AppendRow({v, 0});       // all A point at B=0
    instance[1].AppendRow({0, v});       // B=0 fans out to all C
    instance[2].AppendRow({v, v});
  }
  AcyclicRunOptions options;
  options.p = 8;
  options.collect = true;
  for (RunPolicy policy : {RunPolicy::kConservative, RunPolicy::kOptimal}) {
    options.policy = policy;
    AcyclicRunResult run = ComputeAcyclicJoin(q, instance, options);
    Relation expected = GenericJoin(q, instance);
    EXPECT_EQ(run.output_count, expected.size());
    EXPECT_TRUE(run.results.SameContentAs(expected));
  }
}

TEST(AcyclicJoinTest, HeavyChildResultsCarryTheirConstant) {
  // A Zipf-skewed path at p = 64: values above the threshold become heavy
  // subqueries, and each heavy child's collected results get the heavy
  // value attached back before they join the output.
  Hypergraph q = catalog::Path(3);
  Rng rng(1);
  Instance instance = workload::ZipfInstance(q, 600, 200, 1.3, &rng);
  AcyclicRunOptions options;
  options.p = 64;
  options.collect = true;
  AcyclicRunResult run = ComputeAcyclicJoin(q, instance, options);
  Relation expected = GenericJoin(q, instance);
  EXPECT_EQ(run.output_count, expected.size());
  EXPECT_TRUE(run.results.SameContentAs(expected));
}

TEST(AcyclicJoinTest, ExplicitLoadThresholdIsRespected) {
  Hypergraph q = catalog::Line3();
  Rng rng(3);
  Instance instance = workload::UniformInstance(q, 100, 10, &rng);
  AcyclicRunOptions options;
  options.load_threshold = 40;
  AcyclicRunResult run = ComputeAcyclicJoin(q, instance, options);
  EXPECT_EQ(run.load_threshold, 40u);
  EXPECT_TRUE(run.results.SameContentAs(GenericJoin(q, instance)));
}

TEST(AcyclicJoinTest, RoundsIndependentOfDataSize) {
  // O(1) rounds: growing N must not grow the round count.
  Hypergraph q = catalog::Line3();
  uint32_t rounds_small = 0;
  uint32_t rounds_large = 0;
  for (size_t n : {50u, 400u}) {
    Rng rng(5);
    Instance instance = workload::UniformInstance(q, n, n / 4, &rng);
    AcyclicRunOptions options;
    options.p = 16;
    options.collect = false;
    AcyclicRunResult run = ComputeAcyclicJoin(q, instance, options);
    (n == 50u ? rounds_small : rounds_large) = run.rounds;
  }
  EXPECT_LE(rounds_large, rounds_small + 6);  // same query-size constant
}

TEST(AcyclicJoinTest, LoadOnlyModeTracksSameLoads) {
  Hypergraph q = catalog::Path(4);
  Rng rng(9);
  Instance instance = workload::UniformInstance(q, 150, 15, &rng);
  AcyclicRunOptions collect_opts;
  collect_opts.p = 16;
  collect_opts.collect = true;
  AcyclicRunOptions load_opts = collect_opts;
  load_opts.collect = false;
  AcyclicRunResult with_results = ComputeAcyclicJoin(q, instance, collect_opts);
  AcyclicRunResult load_only = ComputeAcyclicJoin(q, instance, load_opts);
  EXPECT_EQ(with_results.max_load, load_only.max_load);
  EXPECT_EQ(with_results.rounds, load_only.rounds);
  EXPECT_EQ(with_results.servers_used, load_only.servers_used);
}

TEST(LoadPlannerTest, UniformClosedFormMatchesTheorem5) {
  // L = N / p^(1/rho*) for uniform sizes.
  Hypergraph q = catalog::Path(5);  // rho* = 3
  EXPECT_EQ(PlanLoadUniform(q, 64000, 64), 16000u);
  Hypergraph line = catalog::Line3();  // rho* = 2
  EXPECT_EQ(PlanLoadUniform(line, 10000, 100), 1000u);
}

TEST(LoadPlannerTest, OptimalPlannerMatchesClosedFormOnUniformInstances) {
  Hypergraph q = catalog::Line3();
  Instance instance = workload::MatchingInstance(q, 1000);
  uint64_t planned = PlanLoadOptimal(q, instance, 25);
  EXPECT_EQ(planned, PlanLoadUniform(q, 1000, 25));
}

TEST(LoadPlannerTest, ConservativeIsInstanceTighterOnUniformSizes) {
  // Theorem 2's subjoin bound is instance-dependent: on same-size random
  // instances it never exceeds Theorem 4's worst-case product bound
  // (subjoin(S) <= prod_e |R(e)| for every family set), and the two meet
  // on Cartesian-product hard instances.
  for (uint64_t seed : {3u, 4u}) {
    Hypergraph q = catalog::Path(4);
    Rng rng(seed);
    Instance instance = workload::UniformInstance(q, 200, 14, &rng);
    auto tree = JoinTree::Build(q);
    ASSERT_TRUE(tree);
    uint64_t conservative = PlanLoadConservative(q, *tree, instance, 16);
    uint64_t optimal = PlanLoadOptimal(q, instance, 16);
    EXPECT_LE(conservative, optimal + 1);  // +1 absorbs rounding
  }
  // On a matching instance the disconnected pair {R1, R4} makes the
  // subjoin a full product; both planners then agree on the exponent class.
  Hypergraph q = catalog::Path(4);
  Instance matching = workload::MatchingInstance(q, 1024);
  auto tree = JoinTree::Build(q);
  ASSERT_TRUE(tree);
  uint64_t conservative = PlanLoadConservative(q, *tree, matching, 16);
  EXPECT_GE(conservative, 1024u / 4u);  // (N^2/p)^(1/2) = N/4 at least
}

TEST(LoadPlannerTest, TheoreticalServerDemandScalesWithLoad) {
  Hypergraph q = catalog::Line3();
  Instance instance = workload::MatchingInstance(q, 1000);
  uint64_t demand_small_load = TheoreticalServerDemand(q, instance, 100, RunPolicy::kOptimal);
  uint64_t demand_large_load = TheoreticalServerDemand(q, instance, 1000, RunPolicy::kOptimal);
  EXPECT_GT(demand_small_load, demand_large_load);
}

}  // namespace
}  // namespace coverpack
