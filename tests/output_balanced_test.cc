#include "core/output_balanced.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "query/catalog.h"
#include "query/parser.h"
#include "relation/oracle.h"
#include "workload/generators.h"

namespace coverpack {
namespace {

class OutputBalancedCorrectness
    : public ::testing::TestWithParam<std::tuple<std::string, uint32_t, uint64_t>> {};

TEST_P(OutputBalancedCorrectness, MatchesOracle) {
  auto [text, p, seed] = GetParam();
  Hypergraph q = ParseQuery(text);
  Rng rng(seed);
  Instance instance = workload::UniformInstance(q, 120, 12, &rng);
  OutputBalancedOptions options;
  options.collect = true;
  OutputBalancedResult run = ComputeOutputBalanced(q, instance, p, options);
  Relation expected = GenericJoin(q, instance);
  EXPECT_EQ(run.output_count, expected.size()) << text;
  EXPECT_TRUE(run.results.SameContentAs(expected)) << text;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OutputBalancedCorrectness,
    ::testing::Combine(::testing::Values("R1(A,B), R2(B,C), R3(C,D)",
                                         "R1(A,B), R2(A,C), R3(A,D)",
                                         "R0(A,B,C), R1(A,B,D), R2(B,C,E), R3(A,C,F)"),
                       ::testing::Values(3u, 8u, 32u), ::testing::Values(1u, 9u)));

TEST(OutputBalancedTest, EmptyJoin) {
  Hypergraph q = catalog::Line3();
  Instance instance(q);
  instance[0].AppendRow({1, 2});
  instance[1].AppendRow({3, 4});  // B mismatch
  instance[2].AppendRow({4, 5});
  OutputBalancedOptions options;
  options.collect = true;
  OutputBalancedResult run = ComputeOutputBalanced(q, instance, 4, options);
  EXPECT_EQ(run.output_count, 0u);
}

TEST(OutputBalancedTest, LoadIsOutputSensitive) {
  // OUT = N here (matching data): load should be ~N/p, not intermediate-
  // sized like plain Yannakakis on adversarial inputs.
  Hypergraph q = catalog::Line3();
  uint64_t n = 8000;
  Instance instance = workload::MatchingInstance(q, n);
  OutputBalancedOptions options;
  OutputBalancedResult run = ComputeOutputBalanced(q, instance, 16, options);
  EXPECT_EQ(run.output_count, n);
  EXPECT_LE(run.max_load, 8 * n / 16 + 8);
}

TEST(OutputBalancedTest, LoadDegeneratesNearAgmBound) {
  // Full bipartite relations: OUT = side^4 ~ AGM bound N^2. The load must
  // carry ~OUT/p worth of replicated inputs (far above N / sqrt(p)).
  Hypergraph q = catalog::Line3();
  uint64_t side = 24;  // N = 576, OUT = 331776
  Instance instance(q);
  for (Value a = 0; a < side; ++a) {
    for (Value b = 0; b < side; ++b) {
      instance[0].AppendRow({a, b});
      instance[1].AppendRow({a, b});
      instance[2].AppendRow({a, b});
    }
  }
  uint32_t p = 16;
  OutputBalancedOptions options;
  OutputBalancedResult run = ComputeOutputBalanced(q, instance, p, options);
  EXPECT_EQ(run.output_count, side * side * side * side);
  uint64_t n = side * side;
  // Every server needs nearly all of R2 and R3 for its root slice.
  EXPECT_GE(run.max_load, n);
  // Theorem 5's load would be ~N / sqrt(p) = 144: an order of magnitude less.
  EXPECT_GE(run.max_load, 4 * (n / static_cast<uint64_t>(std::sqrt(p))));
}

TEST(OutputBalancedTest, RejectsDisconnectedQueries) {
  Hypergraph q = ParseQuery("R1(A,B), R2(X,Y)");
  Instance instance(q);
  instance[0].AppendRow({1, 2});
  instance[1].AppendRow({3, 4});
  OutputBalancedOptions options;
  EXPECT_DEATH(ComputeOutputBalanced(q, instance, 4, options), "connected");
}

}  // namespace
}  // namespace coverpack
