#include "relation/aggregate.h"

#include <gtest/gtest.h>

#include "query/catalog.h"
#include "query/parser.h"
#include "query/properties.h"
#include "relation/oracle.h"
#include "workload/generators.h"
#include "workload/random_queries.h"

namespace coverpack {
namespace {

/// Canonicalizes an AggregateResult into sorted (key, value) pairs.
std::vector<std::pair<std::vector<Value>, uint64_t>> Canon(const AggregateResult& result) {
  std::vector<std::pair<std::vector<Value>, uint64_t>> pairs;
  for (size_t i = 0; i < result.values.size(); ++i) {
    auto row = result.keys.row(i);
    pairs.emplace_back(std::vector<Value>(row.begin(), row.end()), result.values[i]);
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

TEST(FreeConnexTest, Recognition) {
  Hypergraph line3 = catalog::Line3();  // R1(A,B), R2(B,C), R3(C,D)
  AttrId a = *line3.FindAttribute("A");
  AttrId b = *line3.FindAttribute("B");
  AttrId d = *line3.FindAttribute("D");
  // y = {A} : the virtual edge {A} nests into R1 -> acyclic -> free-connex.
  EXPECT_TRUE(IsFreeConnex(line3, AttrSet::Single(a)));
  // y = {A, D} : endpoints of the path; Q + {A,D} contains a cycle.
  EXPECT_FALSE(IsFreeConnex(line3, AttrSet::FromIds({a, d})));
  // y = {A, B} and y = all attributes are free-connex.
  EXPECT_TRUE(IsFreeConnex(line3, AttrSet::FromIds({a, b})));
  EXPECT_TRUE(IsFreeConnex(line3, line3.AllAttrs()));
  // y = empty reduces to plain acyclicity.
  EXPECT_TRUE(IsFreeConnex(line3, AttrSet()));
  EXPECT_FALSE(IsFreeConnex(catalog::Triangle(), AttrSet()));
}

TEST(FreeConnexTest, CyclicQueryIsNeverFreeConnex) {
  // Q plus an edge over all attributes is alpha-acyclic even for the
  // triangle; Q itself is not, so no output set makes it free-connex.
  const Hypergraph triangle = catalog::Triangle();
  EXPECT_FALSE(IsFreeConnex(triangle, triangle.AllAttrs()));
  EXPECT_FALSE(IsFreeConnex(triangle, AttrSet::Single(*triangle.FindAttribute("A"))));
}

TEST(AggregateTest, CountGroupByOnLine3) {
  Hypergraph q = catalog::Line3();
  Instance instance(q);
  instance[0].AppendRow({1, 10});
  instance[0].AppendRow({2, 10});
  instance[1].AppendRow({10, 20});
  instance[1].AppendRow({10, 21});
  instance[2].AppendRow({20, 30});
  instance[2].AppendRow({21, 30});
  // COUNT(*) GROUP BY A: each A value extends to 2 C values x 1 D = 2.
  AttrId a = *q.FindAttribute("A");
  AggregateResult result = JoinAggregate(q, instance, UnitAnnotations(instance),
                                         AttrSet::Single(a), CountingSemiring());
  auto pairs = Canon(result);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (std::pair<std::vector<Value>, uint64_t>{{1}, 2}));
  EXPECT_EQ(pairs[1], (std::pair<std::vector<Value>, uint64_t>{{2}, 2}));
}

TEST(AggregateTest, ScalarCountMatchesAcyclicJoinCount) {
  for (uint64_t seed : {3u, 4u, 5u}) {
    Rng rng(seed);
    Hypergraph q = workload::RandomAcyclicQuery(&rng);
    Instance instance = workload::UniformInstance(q, 60, 6, &rng);
    auto tree = JoinTree::Build(q);
    ASSERT_TRUE(tree);
    EXPECT_EQ(JoinAggregateScalar(q, instance, UnitAnnotations(instance), CountingSemiring()),
              AcyclicJoinCount(q, *tree, instance))
        << q.ToString();
  }
}

TEST(AggregateTest, TropicalSemiringFindsLightestJoin) {
  // Annotate tuples with costs; the tropical aggregate finds the cheapest
  // join result per group.
  Hypergraph q = ParseQuery("R1(A,B), R2(B,C)");
  Instance instance(q);
  instance[0].AppendRow({1, 10});
  instance[0].AppendRow({1, 11});
  instance[1].AppendRow({10, 5});
  instance[1].AppendRow({11, 5});
  Annotations costs(2);
  costs[0] = {7, 2};   // (1,10) costs 7; (1,11) costs 2
  costs[1] = {1, 10};  // (10,5) costs 1; (11,5) costs 10
  AttrId a = *q.FindAttribute("A");
  AggregateResult result =
      JoinAggregate(q, instance, costs, AttrSet::Single(a), TropicalSemiring());
  auto pairs = Canon(result);
  ASSERT_EQ(pairs.size(), 1u);
  // Paths: 7+1 = 8 via B=10; 2+10 = 12 via B=11. Min = 8.
  EXPECT_EQ(pairs[0].second, 8u);
}

TEST(AggregateTest, DisconnectedComponentsMultiply) {
  Hypergraph q = ParseQuery("R1(A,B), R2(X)");
  Instance instance(q);
  instance[0].AppendRow({1, 2});
  instance[0].AppendRow({1, 3});
  instance[1].AppendRow({7});
  instance[1].AppendRow({8});
  instance[1].AppendRow({9});
  AttrId a = *q.FindAttribute("A");
  AggregateResult result = JoinAggregate(q, instance, UnitAnnotations(instance),
                                         AttrSet::Single(a), CountingSemiring());
  auto pairs = Canon(result);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].second, 6u);  // 2 B-values x 3 X-values
}

TEST(AggregateTest, EmptyComponentZeroesEverything) {
  Hypergraph q = ParseQuery("R1(A,B), R2(X)");
  Instance instance(q);
  instance[0].AppendRow({1, 2});
  // R2 empty.
  AttrId a = *q.FindAttribute("A");
  AggregateResult result = JoinAggregate(q, instance, UnitAnnotations(instance),
                                         AttrSet::Single(a), CountingSemiring());
  EXPECT_TRUE(result.values.empty());
}

TEST(AggregateTest, JoiningRowWithZeroValueKeepsItsGroup) {
  Hypergraph q = ParseQuery("R1(A,B), R2(B,C)");
  Instance instance(q);
  instance[0].AppendRow({1, 10});
  instance[0].AppendRow({2, 11});  // no partner in R2
  instance[1].AppendRow({10, 5});
  const Annotations annotations = {{0, 3}, {4}};
  AttrId a = *q.FindAttribute("A");
  auto pairs = Canon(
      JoinAggregate(q, instance, annotations, AttrSet::Single(a), CountingSemiring()));
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (std::pair<std::vector<Value>, uint64_t>{{1}, 0}));
  EXPECT_EQ(pairs, Canon(JoinAggregateBruteForce(q, instance, annotations, AttrSet::Single(a),
                                                 CountingSemiring())));
}

TEST(AggregateTest, EmptyOutputHasOneGroupIffTheJoinIsNonEmpty) {
  Hypergraph q = ParseQuery("R1(A,B), R2(B,C)");
  Instance instance(q);
  instance[0].AppendRow({1, 10});
  instance[1].AppendRow({10, 5});
  instance[1].AppendRow({10, 6});
  AggregateResult result = JoinAggregate(q, instance, {}, AttrSet(), CountingSemiring());
  ASSERT_EQ(result.keys.size(), 1u);
  ASSERT_EQ(result.values.size(), 1u);
  EXPECT_EQ(result.values[0], 2u);

  instance[1] = Relation(q.edge(1).attrs);
  result = JoinAggregate(q, instance, {}, AttrSet(), CountingSemiring());
  EXPECT_EQ(result.keys.size(), 0u);
  EXPECT_TRUE(result.values.empty());
  EXPECT_EQ(JoinAggregateScalar(q, instance, {}, CountingSemiring()), 0u);
}

TEST(AggregateDeathTest, ShortAnnotationVectorIsRejected) {
  Hypergraph q = ParseQuery("R1(A,B), R2(B,C)");
  Instance instance(q);
  instance[0].AppendRow({1, 10});
  instance[0].AppendRow({2, 10});
  instance[1].AppendRow({10, 5});
  const Annotations annotations = {{7}, {}};  // one entry for R1's two rows
  const AttrSet y = AttrSet::Single(*q.FindAttribute("A"));
  const char* message = "the annotations of R1 need one entry per row";
  EXPECT_DEATH(JoinAggregate(q, instance, annotations, y, CountingSemiring()), message);
  EXPECT_DEATH(JoinAggregateScalar(q, instance, annotations, TropicalSemiring()), message);
  EXPECT_DEATH(JoinAggregateBruteForce(q, instance, annotations, y, CountingSemiring()),
               message);
}

TEST(AggregateDeathTest, CyclicQueryIsRejected) {
  const Hypergraph triangle = catalog::Triangle();
  Instance instance(triangle);
  for (EdgeId e = 0; e < triangle.num_edges(); ++e) instance[e].AppendRow({1, 1});
  EXPECT_DEATH(JoinAggregate(triangle, instance, {}, triangle.AllAttrs(), CountingSemiring()),
               "JoinAggregate requires a free-connex query");
}

class AggregateFuzzTest : public ::testing::TestWithParam<uint64_t> {};

/// Property: the message-passing evaluation agrees with brute force on
/// every random free-connex (query, y) pair, under both semirings.
TEST_P(AggregateFuzzTest, MatchesBruteForce) {
  Rng rng(GetParam() * 2654435761u + 1);
  Hypergraph q = workload::RandomAcyclicQuery(&rng);
  Instance instance = workload::UniformInstance(q, 30, 5, &rng);

  // Random output set; skip non-free-connex draws.
  std::vector<AttrId> attrs = q.AllAttrs().ToVector();
  AttrSet y;
  for (AttrId v : attrs) {
    if (rng.Bernoulli(0.4)) y.Insert(v);
  }
  if (!IsFreeConnex(q, y)) return;

  // Random annotations, zero included: a joining row whose value is the
  // semiring's zero must keep its group.
  Annotations annotations(q.num_edges());
  for (uint32_t e = 0; e < q.num_edges(); ++e) {
    for (size_t i = 0; i < instance[e].size(); ++i) {
      annotations[e].push_back(rng.Uniform(6));
    }
  }

  const auto expect_match = [&](auto semiring) {
    AggregateResult fast = JoinAggregate(q, instance, annotations, y, semiring);
    AggregateResult slow = JoinAggregateBruteForce(q, instance, annotations, y, semiring);
    EXPECT_EQ(Canon(fast), Canon(slow)) << q.ToString() << " y=" << y.bits();
  };
  expect_match(CountingSemiring());
  expect_match(TropicalSemiring());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateFuzzTest, ::testing::Range<uint64_t>(1, 61));

}  // namespace
}  // namespace coverpack
