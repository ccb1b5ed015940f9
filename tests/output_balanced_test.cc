#include "core/output_balanced.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "query/catalog.h"
#include "query/join_tree.h"
#include "query/parser.h"
#include "relation/operators.h"
#include "relation/oracle.h"
#include "util/ledger.h"
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
  RunResult run = ComputeOutputBalanced(q, instance, p, options);
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
  RunResult run = ComputeOutputBalanced(q, instance, 4, options);
  EXPECT_EQ(run.output_count, 0u);
}

TEST(OutputBalancedTest, LoadIsOutputSensitive) {
  // OUT = N here (matching data): load should be ~N/p, not intermediate-
  // sized like plain Yannakakis on adversarial inputs.
  Hypergraph q = catalog::Line3();
  uint64_t n = 8000;
  Instance instance = workload::MatchingInstance(q, n);
  OutputBalancedOptions options;
  RunResult run = ComputeOutputBalanced(q, instance, 16, options);
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
  RunResult run = ComputeOutputBalanced(q, instance, p, options);
  EXPECT_EQ(run.output_count, side * side * side * side);
  uint64_t n = side * side;
  // Every server needs nearly all of R2 and R3 for its root slice.
  EXPECT_GE(run.max_load, n);
  // Theorem 5's load would be ~N / sqrt(p) = 144: an order of magnitude less.
  EXPECT_GE(run.max_load, 4 * (n / static_cast<uint64_t>(std::sqrt(p))));
}

/// Each server's output_slices receive, recomputed from the definition:
/// root row i goes to server min(p - 1, prefix_i / ceil(OUT / p)), where
/// prefix_i sums the SubtreeWeights of the root rows before it, and each
/// server semi-joins every child of SemiJoinReduce's output with its
/// parent's rows, top down.
std::vector<uint64_t> ReferenceSliceReceives(const Hypergraph& q, const Instance& instance,
                                             uint32_t p) {
  const auto tree = JoinTree::Build(q);
  const Instance reduced = SemiJoinReduce(q, *tree, instance);
  const std::vector<std::vector<uint64_t>> weight = SubtreeWeights(q, *tree, reduced);
  const uint32_t root = tree->Roots()[0];
  uint64_t out = 0;
  for (uint64_t w : weight[root]) out += w;
  const uint64_t per_server = (out + p - 1) / p;
  std::vector<Instance> needed(p, Instance(q));
  uint64_t prefix = 0;
  for (size_t i = 0; i < reduced[root].size(); ++i) {
    const uint64_t server = std::min<uint64_t>(p - 1, prefix / per_server);
    needed[server][root].AppendRow(reduced[root].row(i));
    prefix += weight[root][i];
  }
  std::vector<uint64_t> receives(p, 0);
  for (uint32_t s = 0; s < p; ++s) {
    if (needed[s][root].empty()) continue;
    receives[s] = needed[s][root].size();
    for (uint32_t node : tree->TopDown()) {
      for (uint32_t child : tree->children(node)) {
        needed[s][child] = SemiJoin(reduced[child], needed[s][node]);
        receives[s] += needed[s][child].size();
      }
    }
  }
  return receives;
}

TEST(OutputBalancedTest, SliceReceivesMatchPerServerSemiJoins) {
  struct Case {
    std::string name;
    Hypergraph query;
    Instance instance;
  };
  std::vector<Case> cases;
  {
    Hypergraph q = catalog::Path(4);
    Rng rng(21);
    cases.push_back({"path", q, workload::UniformInstance(q, 150, 8, &rng)});
  }
  {
    // Every row of every relation shares X0 = 0: the root rows of a slice
    // all reach the same child key, which must be received once.
    Hypergraph q = catalog::Star(3);
    Instance instance(q);
    for (uint32_t e = 0; e < q.num_edges(); ++e) {
      for (Value v = 0; v < 40; ++v) instance[e].AppendRow({0, v});
    }
    cases.push_back({"star_one_key", q, std::move(instance)});
  }
  {
    Hypergraph q = ParseQuery("R1(A,B), R2(B,C), R3(B,D), R4(C,E), R5(D,F)");
    Rng rng(22);
    cases.push_back({"branching", q, workload::UniformInstance(q, 120, 6, &rng)});
  }
  {
    // At most ten root rows: p = 64 leaves most slices empty.
    Hypergraph q = catalog::Path(3);
    Rng rng(23);
    cases.push_back({"tiny_path", q, workload::UniformInstance(q, 10, 3, &rng)});
  }
  for (const Case& c : cases) {
    for (uint32_t p : {1u, 4u, 64u}) {
      SCOPED_TRACE(c.name + " at p = " + std::to_string(p));
      const std::vector<uint64_t> expected = ReferenceSliceReceives(c.query, c.instance, p);
      const RunResult charged = ComputeOutputBalanced(c.query, c.instance, p, {});
      const RunResult collected =
          ComputeOutputBalanced(c.query, c.instance, p, {.collect = true});
      ASSERT_GT(charged.output_count, 0u);
      const LoadTracker& tracker = charged.load_tracker;
      const uint32_t slices_round = tracker.num_rounds() - 1;
      for (uint32_t s = 0; s < p; ++s) {
        EXPECT_EQ(tracker.At(slices_round, s), expected[s]) << "server " << s;
      }
      EXPECT_EQ(collected.load_tracker, charged.load_tracker);
      if (c.name == "tiny_path" && p == 64) {
        EXPECT_GT(std::count(expected.begin(), expected.end(), uint64_t{0}), 0);
      }
    }
  }
}

TEST(OutputBalancedTest, ChargeOnlyArenaScopesDoNotGrowWithServers) {
  // The slice walk reads per-edge key maps built once; no server opens an
  // arena frame of its own.
  Hypergraph q = catalog::Path(3);
  Rng rng(24);
  Instance instance = workload::UniformInstance(q, 400, 20, &rng);
  auto scopes_of_run = [&](uint32_t p) {
    const uint64_t before = Ledger::Global().Read("memory.").CounterValue("memory.arena_scopes");
    const RunResult run = ComputeOutputBalanced(q, instance, p, {});
    const std::vector<uint64_t>& slices =
        run.load_tracker.RoundLoads(run.load_tracker.num_rounds() - 1);
    EXPECT_GE(std::count_if(slices.begin(), slices.end(), [](uint64_t r) { return r > 0; }),
              p == 64 ? 32 : 4);
    return Ledger::Global().Read("memory.").CounterValue("memory.arena_scopes") - before;
  };
  const uint64_t at_4 = scopes_of_run(4);
  EXPECT_GT(at_4, 0u);
  EXPECT_EQ(scopes_of_run(64), at_4);
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
