#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/one_round.h"
#include "core/yannakakis.h"
#include "query/catalog.h"
#include "query/parser.h"
#include "relation/oracle.h"
#include "workload/generators.h"

namespace coverpack {
namespace {

class YannakakisCorrectness
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(YannakakisCorrectness, MatchesOracle) {
  auto [text, seed] = GetParam();
  Hypergraph q = ParseQuery(text);
  Rng rng(seed);
  Instance instance = workload::UniformInstance(q, 100, 10, &rng);
  RunResult run = ComputeYannakakis(q, instance, 16, /*collect=*/true);
  Relation expected = GenericJoin(q, instance);
  EXPECT_EQ(run.output_count, expected.size());
  EXPECT_TRUE(run.results.SameContentAs(expected));
  EXPECT_GT(run.rounds, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, YannakakisCorrectness,
    ::testing::Combine(::testing::Values("R1(A,B), R2(B,C), R3(C,D)",
                                         "R1(A,B), R2(A,C), R3(A,D)",
                                         "R0(A,B,C), R1(A,B,D), R2(B,C,E), R3(A,C,F)",
                                         "R1(A,B), R2(B,C), R3(X,Y)"),
                       ::testing::Values(1u, 2u, 3u)));

TEST(YannakakisTest, OutputDrivenLoad) {
  // A high-output instance drags Yannakakis' load toward OUT/p while its
  // input is tiny: the weakness Table 1 documents.
  Hypergraph q = catalog::Line3();
  uint64_t n = 200;
  Instance instance(q);
  // R1 = {*} x sqrt(n) B-values, R2 = full bipartite on sqrt(n) x sqrt(n).
  uint64_t side = 14;
  for (Value a = 0; a < side; ++a) {
    for (Value b = 0; b < side; ++b) {
      instance[0].AppendRow({a, b});
      instance[1].AppendRow({a, b});
      instance[2].AppendRow({a, b});
    }
  }
  RunResult run = ComputeYannakakis(q, instance, 4, /*collect=*/true);
  // OUT = side^4; the communicated intermediate R1 |><| R2 has side^3 rows,
  // so the load must be at least side^3 / p — far above the N/p of the
  // paper's algorithm on the same instance.
  uint64_t out = side * side * side * side;
  EXPECT_EQ(run.output_count, out);
  EXPECT_GE(run.max_load, side * side * side / 4);
  (void)n;
}

TEST(YannakakisTest, ChargeOnlyForestChargesWhatTheCollectingRunCharges) {
  // Each component's last join is routed charge-only: the same receives in
  // the same rounds, no rows. (RunResultTest covers connected queries.)
  Hypergraph q = ParseQuery("R1(A,B), R2(B,C), R3(X,Y), R4(Y,Z)");
  Rng rng(5);
  Instance instance = workload::UniformInstance(q, 60, 6, &rng);
  const RunResult collected = ComputeYannakakis(q, instance, 16, /*collect=*/true);
  const RunResult charged = ComputeYannakakis(q, instance, 16, /*collect=*/false);
  ASSERT_GT(collected.output_count, 0u);
  EXPECT_EQ(charged.rounds, collected.rounds);
  EXPECT_EQ(charged.max_load, collected.max_load);
  EXPECT_TRUE(charged.load_tracker == collected.load_tracker);
  EXPECT_EQ(charged.output_count, 0u);
  EXPECT_TRUE(charged.results.empty());
}

class OneRoundCorrectness
    : public ::testing::TestWithParam<std::tuple<std::string, double, uint64_t>> {};

TEST_P(OneRoundCorrectness, SkewAwareMatchesOracle) {
  auto [text, skew, seed] = GetParam();
  Hypergraph q = ParseQuery(text);
  Rng rng(seed);
  Instance instance = skew == 0.0 ? workload::UniformInstance(q, 100, 10, &rng)
                                  : workload::ZipfInstance(q, 100, 16, skew, &rng);
  OneRoundOptions options;
  options.collect = true;
  RunResult run = ComputeOneRoundSkewAware(q, instance, 32, options);
  Relation expected = GenericJoin(q, instance);
  EXPECT_EQ(run.output_count, expected.size());
  EXPECT_TRUE(run.results.SameContentAs(expected));
  EXPECT_EQ(run.rounds, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OneRoundCorrectness,
    ::testing::Combine(::testing::Values("R1(A,B), R2(B,C), R3(C,A)",
                                         "R1(A,B), R2(B,C), R3(C,D)",
                                         "R1(A,B,C), R2(D,E,F), R3(A,D), R4(B,E), R5(C,F)"),
                       ::testing::Values(0.0, 1.2), ::testing::Values(1u, 5u)));

/// A triangle whose value A = 0 is heavy in R1 and R3.
Instance HeavyHitterTriangle(const Hypergraph& q) {
  const uint64_t n = 3000;
  Instance instance(q);
  for (Value v = 0; v < n; ++v) {
    instance[0].AppendRow({0, v});          // A=0 heavy in R1
    instance[1].AppendRow({v, v % 50});
    instance[2].AppendRow({v % 50, 0});     // A=0 heavy in R3
  }
  return instance;
}

TEST(OneRoundTest, SkewAwareBeatsVanillaOnHeavyHitter) {
  // The motivating skew scenario: vanilla hypercube funnels a heavy value
  // into one server; the skew-aware variant splits it off.
  Hypergraph q = catalog::Triangle();
  Instance instance = HeavyHitterTriangle(q);
  uint32_t p = 64;
  RunResult vanilla = ComputeOneRoundVanilla(q, instance, p, /*collect=*/false);
  OneRoundOptions options;
  options.collect = false;
  RunResult aware = ComputeOneRoundSkewAware(q, instance, p, options);
  EXPECT_LT(aware.max_load, vanilla.max_load);
}

TEST(OneRoundTest, SkewAwareSplitReattachesHeavyBindings) {
  // The same split, collected: the heavy value's residual query runs on
  // its own servers, and its results get A = 0 attached back.
  Hypergraph q = catalog::Triangle();
  Instance instance = HeavyHitterTriangle(q);
  OneRoundOptions options;
  options.collect = true;
  RunResult run = ComputeOneRoundSkewAware(q, instance, 64, options);
  Relation expected = GenericJoin(q, instance);
  EXPECT_EQ(expected.size(), 60u);
  EXPECT_EQ(run.output_count, expected.size());
  EXPECT_TRUE(run.results.SameContentAs(expected));
}

TEST(OneRoundTest, VanillaMatchesOracleOnUniform) {
  Hypergraph q = catalog::Triangle();
  Rng rng(11);
  Instance instance = workload::UniformInstance(q, 90, 9, &rng);
  RunResult run = ComputeOneRoundVanilla(q, instance, 27, /*collect=*/true);
  Relation expected = GenericJoin(q, instance);
  EXPECT_EQ(run.output_count, expected.size());
  EXPECT_TRUE(run.results.SameContentAs(expected));
}

}  // namespace
}  // namespace coverpack
