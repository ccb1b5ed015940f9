#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/one_round.h"
#include "core/yannakakis.h"
#include "query/catalog.h"
#include "query/parser.h"
#include "relation/operators.h"
#include "relation/oracle.h"
#include "util/random.h"
#include "util/thread_pool.h"
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

/// The split decision from full DegreeHistogram scans, value by value in
/// attribute-then-edge order: what FindWorstSkew must decide.
SkewChoice ReferenceSkewChoice(const Hypergraph& query, const Instance& instance,
                               const mpc::ShareVector& shares) {
  SkewChoice choice;
  for (AttrId v : query.AllAttrs().ToVector()) {
    const uint32_t share = shares.shares[v];
    if (share <= 1) continue;
    for (EdgeId e = 0; e < query.num_edges(); ++e) {
      if (!query.edge(e).attrs.Contains(v)) continue;
      const double threshold =
          2.0 * static_cast<double>(instance[e].size()) / static_cast<double>(share);
      for (const auto& [value, degree] : DegreeHistogram(instance[e], v)) {
        const double ratio = static_cast<double>(degree) / std::max(threshold, 1.0);
        if (ratio > 1.0 && ratio > choice.ratio) choice = SkewChoice{true, v, ratio};
      }
    }
  }
  return choice;
}

/// The first work item's shares, as ComputeOneRoundSkewAware computes them.
mpc::ShareVector TopShares(const Hypergraph& q, const Instance& instance, uint32_t p) {
  std::vector<uint64_t> sizes;
  for (size_t e = 0; e < instance.num_relations(); ++e) sizes.push_back(instance[e].size());
  return mpc::OptimizeSharesForSizes(q, sizes, p);
}

/// At pool sizes 1 and 4, FindWorstSkew decides the whole instance as the
/// reference scan does, and a collecting skew-aware run charges the same
/// tracker and emits the same rows, in order, as a run whose every split
/// the reference decides. Returns the top-level decision.
SkewChoice ExpectReferenceSkewDecisions(const std::string& name, const Hypergraph& q,
                                        const Instance& instance, uint32_t p) {
  const mpc::ShareVector shares = TopShares(q, instance, p);
  const SkewChoice expected = ReferenceSkewChoice(q, instance, shares);
  OneRoundOptions options;
  options.collect = true;
  const unsigned saved_threads = ThreadPool::GlobalThreads();
  ThreadPool::SetGlobalThreads(1);
  const RunResult reference =
      ComputeOneRoundSkewAwareWith(q, instance, p, options, ReferenceSkewChoice);
  for (unsigned threads : {1u, 4u}) {
    ThreadPool::SetGlobalThreads(threads);
    const SkewChoice choice = FindWorstSkew(q, instance, shares);
    EXPECT_EQ(choice.skewed, expected.skewed) << name << " at " << threads << " threads";
    EXPECT_EQ(choice.attr, expected.attr) << name << " at " << threads << " threads";
    EXPECT_EQ(choice.ratio, expected.ratio) << name << " at " << threads << " threads";
    const RunResult run = ComputeOneRoundSkewAware(q, instance, p, options);
    EXPECT_TRUE(run.load_tracker == reference.load_tracker)
        << name << " at " << threads << " threads";
    EXPECT_EQ(run.servers_used, reference.servers_used) << name << " at " << threads;
    EXPECT_EQ(run.output_count, reference.output_count) << name << " at " << threads;
    EXPECT_TRUE(run.results.attrs() == reference.results.attrs()) << name;
    EXPECT_TRUE(run.results.raw() == reference.results.raw())
        << name << " at " << threads << " threads";
  }
  ThreadPool::SetGlobalThreads(saved_threads);
  return expected;
}

/// An instance of `q` whose relations hold `rows` as given, sorted.
Instance SortedInstance(const Hypergraph& q,
                        const std::vector<std::vector<std::vector<Value>>>& rows) {
  Instance instance(q);
  for (size_t e = 0; e < rows.size(); ++e) {
    for (const std::vector<Value>& row : rows[e]) {
      instance[e].AppendRow(std::span<const Value>(row));
    }
    instance[e].SortRows();
  }
  return instance;
}

TEST(OneRoundTest, SkewDecisionsMatchTheReferenceOnTheCyclicBenchmarkShapes) {
  // The five cyclic shapes of the perf benchmark, at its sizes, domains,
  // Zipf exponent and sample seeds, rows sorted: none of them is skewed.
  struct Shape {
    const char* name;
    Hypergraph query;
    size_t n;
    uint64_t domain;
  };
  const std::vector<Shape> shapes = {{"triangle", catalog::Triangle(), 10000, 2000},
                                     {"cycle4", catalog::Cycle(4), 6000, 1500},
                                     {"clique4", catalog::Clique(4), 8000, 400},
                                     {"lw4", catalog::LoomisWhitney(4), 20000, 60},
                                     {"box", catalog::BoxJoin(), 3000, 200}};
  for (size_t k = 0; k < shapes.size(); ++k) {
    Rng rng(SplitSeed(0x21F5EEDull, k));
    Instance instance =
        workload::ZipfInstance(shapes[k].query, shapes[k].n, shapes[k].domain, 0.5, &rng);
    for (size_t e = 0; e < instance.num_relations(); ++e) instance[e].SortRows();
    const SkewChoice top =
        ExpectReferenceSkewDecisions(shapes[k].name, shapes[k].query, instance, 64);
    EXPECT_FALSE(top.skewed) << shapes[k].name;
  }
}

TEST(OneRoundTest, SkewDecisionSplitsOnOneHeavyValueInOneRelation) {
  // A = 0 holds 2000 of R1's 3000 rows, in R1's first (sorted) column.
  const Hypergraph q = catalog::Triangle();
  std::vector<std::vector<std::vector<Value>>> rows(3);
  for (Value i = 0; i < 3000; ++i) {
    rows[0].push_back({i < 2000 ? 0 : i, i});
    rows[1].push_back({i, (i * 7) % 3000});
    rows[2].push_back({i, (i * 13) % 3000});
  }
  const SkewChoice top =
      ExpectReferenceSkewDecisions("one heavy value", q, SortedInstance(q, rows), 64);
  EXPECT_TRUE(top.skewed);
  EXPECT_EQ(top.attr, 0u);
}

TEST(OneRoundTest, SkewDecisionTieGoesToTheFirstPairInAttributeThenEdgeOrder) {
  // B = 7 in R1 and C = 9 in R2 each hold 800 of 1200 rows under equal
  // shares, so (B, R1) and (C, R2) tie on the worst ratio; B comes first.
  const Hypergraph q = catalog::Triangle();
  std::vector<std::vector<std::vector<Value>>> rows(3);
  for (Value i = 0; i < 1200; ++i) {
    rows[0].push_back({i, i < 800 ? 7 : 1000 + i});
    rows[1].push_back({i, i < 800 ? 9 : 1000 + i});
    rows[2].push_back({i, i});
  }
  const Instance instance = SortedInstance(q, rows);
  const mpc::ShareVector shares = TopShares(q, instance, 64);
  ASSERT_EQ(shares.shares[1], shares.shares[2]);
  const SkewChoice top = ExpectReferenceSkewDecisions("tie", q, instance, 64);
  EXPECT_TRUE(top.skewed);
  EXPECT_EQ(top.attr, 1u);
}

TEST(OneRoundTest, SkewDecisionSortsAColumnThatIsNotFirst) {
  // B = 5 holds 1000 of R1's 1500 rows in R1's second column, which the
  // sorted relation does not keep ascending.
  const Hypergraph q = catalog::Triangle();
  std::vector<std::vector<std::vector<Value>>> rows(3);
  for (Value i = 0; i < 1500; ++i) {
    rows[0].push_back({i, i % 3 == 2 ? 3000 + i : 5});
    rows[1].push_back({i, (i * 7) % 1500});
    rows[2].push_back({i, (i * 11) % 1500});
  }
  const Instance instance = SortedInstance(q, rows);
  std::vector<Value> column;
  for (size_t i = 0; i < instance[0].size(); ++i) column.push_back(instance[0].row(i)[1]);
  ASSERT_FALSE(std::is_sorted(column.begin(), column.end()));
  const SkewChoice top = ExpectReferenceSkewDecisions("second column", q, instance, 64);
  EXPECT_TRUE(top.skewed);
  EXPECT_EQ(top.attr, 1u);
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
