#include "relation/oracle.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "query/catalog.h"
#include "query/parser.h"
#include "relation/agm.h"
#include "workload/generators.h"
#include "workload/random_queries.h"

namespace coverpack {
namespace {

TEST(OracleTest, TriangleByHand) {
  Hypergraph q = catalog::Triangle();
  Instance instance(q);
  // R1(A,B), R2(B,C), R3(C,A): one triangle (1,2,3) plus noise.
  instance[0].AppendRow({1, 2});
  instance[0].AppendRow({1, 5});
  instance[1].AppendRow({2, 3});
  instance[1].AppendRow({5, 9});
  instance[2].AppendRow({1, 3});  // schema {C,A} stores rows as (A, C)
  Relation result = GenericJoin(q, instance);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.row(0)[0], 1u);  // A
  EXPECT_EQ(result.row(0)[1], 2u);  // B
  EXPECT_EQ(result.row(0)[2], 3u);  // C
}

TEST(OracleTest, EmptyRelationEmptyJoin) {
  Hypergraph q = catalog::Line3();
  Instance instance(q);
  instance[0].AppendRow({1, 2});
  // instance[1] empty
  instance[2].AppendRow({3, 4});
  EXPECT_TRUE(GenericJoin(q, instance).empty());
  auto tree = JoinTree::Build(q);
  ASSERT_TRUE(tree);
  EXPECT_EQ(AcyclicJoinCount(q, *tree, instance), 0u);
}

TEST(OracleTest, CartesianProductCount) {
  Hypergraph q = ParseQuery("R1(A), R2(B)");
  Instance instance(q);
  for (Value v = 0; v < 5; ++v) instance[0].AppendRow({v});
  for (Value v = 0; v < 7; ++v) instance[1].AppendRow({v});
  EXPECT_EQ(GenericJoin(q, instance).size(), 35u);
  EXPECT_EQ(JoinCount(q, instance), 35u);
}

class CountAgreementTest : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

/// Property: AcyclicJoinCount agrees with materializing GenericJoin on
/// random instances, across query shapes and seeds.
TEST_P(CountAgreementTest, CountMatchesMaterialization) {
  auto [text, seed] = GetParam();
  Hypergraph q = ParseQuery(text);
  Rng rng(seed);
  Instance instance = workload::UniformInstance(q, 60, 12, &rng);
  uint64_t materialized = GenericJoin(q, instance).size();
  EXPECT_EQ(JoinCount(q, instance), materialized) << text << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CountAgreementTest,
    ::testing::Combine(::testing::Values("R1(A,B), R2(B,C), R3(C,D)",
                                         "R1(A,B), R2(A,C), R3(A,D)",
                                         "R0(A,B,C), R1(A,B,D), R2(B,C,E), R3(A,C,F)",
                                         "R1(A,B), R2(B,C), R3(C,A)",
                                         "R1(A,B,C), R2(D,E,F), R3(A,D), R4(B,E), R5(C,F)"),
                       ::testing::Values(1u, 2u, 3u, 4u)));

TEST(OracleTest, SemiJoinReduceRemovesDanglers) {
  Hypergraph q = catalog::Line3();
  Instance instance(q);
  instance[0].AppendRow({1, 2});
  instance[0].AppendRow({8, 9});  // dangling: B=9 unmatched
  instance[1].AppendRow({2, 3});
  instance[2].AppendRow({3, 4});
  auto tree = JoinTree::Build(q);
  ASSERT_TRUE(tree);
  Instance reduced = SemiJoinReduce(q, *tree, instance);
  EXPECT_EQ(reduced[0].size(), 1u);
  EXPECT_EQ(reduced[1].size(), 1u);
  EXPECT_EQ(reduced[2].size(), 1u);
  // Reduction preserves the join result.
  EXPECT_TRUE(GenericJoin(q, reduced).SameContentAs(GenericJoin(q, instance)));
}

TEST(OracleTest, SemiJoinReducePropertyOnRandomInstances) {
  for (uint64_t seed : {11u, 22u, 33u}) {
    Hypergraph q = catalog::Path(4);
    Rng rng(seed);
    Instance instance = workload::UniformInstance(q, 80, 10, &rng);
    auto tree = JoinTree::Build(q);
    ASSERT_TRUE(tree);
    Instance reduced = SemiJoinReduce(q, *tree, instance);
    EXPECT_TRUE(GenericJoin(q, reduced).SameContentAs(GenericJoin(q, instance)));
    // Every remaining tuple participates in some join result.
    uint64_t count = AcyclicJoinCount(q, *tree, reduced);
    if (count == 0) {
      for (uint32_t e = 0; e < q.num_edges(); ++e) EXPECT_TRUE(reduced[e].empty());
    }
  }
}

/// The nodes of `node`'s subtree.
EdgeSet SubtreeOf(const JoinTree& tree, uint32_t node) {
  EdgeSet subtree = EdgeSet::Single(node);
  for (uint32_t child : tree.children(node)) subtree = subtree.Union(SubtreeOf(tree, child));
  return subtree;
}

/// SubtreeWeights against GenericJoin: w[e][i] must be the number of
/// results of the join of e's subtree that agree with row i of e.
void ExpectSubtreeWeightsCountExtensions(const Hypergraph& q, const Instance& instance) {
  auto tree = JoinTree::Build(q);
  ASSERT_TRUE(tree);
  const std::vector<std::vector<uint64_t>> weights = SubtreeWeights(q, *tree, instance);
  ASSERT_EQ(weights.size(), q.num_edges());
  for (uint32_t e = 0; e < q.num_edges(); ++e) {
    const EdgeSet subtree = SubtreeOf(*tree, e);
    const Hypergraph sub = q.InducedByEdges(subtree);
    Instance sub_instance(sub);
    const std::vector<EdgeId> members = subtree.ToVector();
    for (size_t k = 0; k < members.size(); ++k) {
      sub_instance[static_cast<EdgeId>(k)] = instance[members[k]];
    }
    const Relation joined = GenericJoin(sub, sub_instance);
    std::map<std::vector<Value>, uint64_t> extensions;  // keyed by e's columns
    for (size_t r = 0; r < joined.size(); ++r) {
      std::vector<Value> key;
      for (AttrId a : q.edge(e).attrs.ToVector()) key.push_back(joined.row(r)[joined.ColumnOf(a)]);
      ++extensions[key];
    }
    ASSERT_EQ(weights[e].size(), instance[e].size());
    for (size_t i = 0; i < instance[e].size(); ++i) {
      const auto row = instance[e].row(i);
      const auto it = extensions.find(std::vector<Value>(row.begin(), row.end()));
      EXPECT_EQ(weights[e][i], it == extensions.end() ? 0 : it->second)
          << q.edge(e).name << " row " << i;
    }
  }
}

TEST(OracleTest, SubtreeWeightsCountGenericJoinExtensions) {
  for (const char* text : {"R1(A,B), R2(B,C), R3(C,D), R4(D,E)", "R1(A,B), R2(A,C), R3(A,D)",
                           "R1(A,B,C), R2(A,B,D), R3(B,E), R4(E,F)"}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      const Hypergraph q = ParseQuery(text);
      Rng rng(seed);
      ExpectSubtreeWeightsCountExtensions(q, workload::UniformInstance(q, 40, 6, &rng));
    }
  }
}

TEST(OracleTest, SubtreeWeightsOnAForest) {
  const Hypergraph q = ParseQuery("R1(A,B), R2(B,C), R3(X,Y), R4(Y,Z), R5(P,Q)");
  Rng rng(7);
  const Instance instance = workload::UniformInstance(q, 30, 5, &rng);
  ExpectSubtreeWeightsCountExtensions(q, instance);
  // Each root's weights sum to its component's join size.
  auto tree = JoinTree::Build(q);
  ASSERT_TRUE(tree);
  const std::vector<std::vector<uint64_t>> weights = SubtreeWeights(q, *tree, instance);
  uint64_t product = 1;
  for (uint32_t root : tree->Roots()) {
    uint64_t sum = 0;
    for (uint64_t w : weights[root]) sum += w;
    product *= sum;
  }
  EXPECT_EQ(product, AcyclicJoinCount(q, *tree, instance));
  EXPECT_EQ(product, GenericJoin(q, instance).size());
}

TEST(OracleTest, SubtreeWeightsWithAnEmptyRelation) {
  const Hypergraph q = catalog::Path(3);
  Rng rng(4);
  Instance instance = workload::UniformInstance(q, 30, 5, &rng);
  instance[1] = Relation(q.edge(1).attrs);
  ExpectSubtreeWeightsCountExtensions(q, instance);
  auto tree = JoinTree::Build(q);
  ASSERT_TRUE(tree);
  EXPECT_EQ(AcyclicJoinCount(q, *tree, instance), 0u);
}

/// AcyclicResultDigest against the digest of the materialized join.
/// Returns whether the join is non-empty.
bool ExpectDigestMatchesGenericJoin(const Hypergraph& q, const Instance& instance) {
  auto tree = JoinTree::Build(q);
  EXPECT_TRUE(tree) << q.ToString();
  if (!tree) return false;
  const Relation joined = GenericJoin(q, instance);
  EXPECT_EQ(AcyclicResultDigest(q, *tree, instance), ResultDigest(joined)) << q.ToString();
  return !joined.empty();
}

TEST(OracleTest, AcyclicResultDigestMatchesGenericJoinOnTheRoster) {
  size_t nonempty = 0;
  for (const auto& entry : catalog::StandardRoster()) {
    if (!JoinTree::Build(entry.query)) continue;
    Rng rng(11);
    nonempty += ExpectDigestMatchesGenericJoin(
        entry.query, workload::UniformInstance(entry.query, 30, 5, &rng));
  }
  EXPECT_GE(nonempty, 8u);
}

TEST(OracleTest, AcyclicResultDigestMatchesGenericJoinOnRandomAcyclicInstances) {
  size_t nonempty = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    const Hypergraph q = workload::RandomAcyclicQuery(&rng);
    nonempty += ExpectDigestMatchesGenericJoin(q, workload::UniformInstance(q, 40, 6, &rng));
  }
  EXPECT_GE(nonempty, 20u);
}

TEST(OracleTest, AcyclicResultDigestOnAForest) {
  const Hypergraph q = ParseQuery("R1(A,B), R2(B,C), R3(X,Y), R4(Y,Z), R5(P,Q)");
  Rng rng(7);
  EXPECT_TRUE(ExpectDigestMatchesGenericJoin(q, workload::UniformInstance(q, 30, 5, &rng)));
}

TEST(OracleTest, AcyclicResultDigestWithAnEmptyRelation) {
  const Hypergraph q = catalog::Path(3);
  Rng rng(4);
  Instance instance = workload::UniformInstance(q, 30, 5, &rng);
  instance[1] = Relation(q.edge(1).attrs);
  EXPECT_FALSE(ExpectDigestMatchesGenericJoin(q, instance));
  EXPECT_EQ(AcyclicResultDigest(q, *JoinTree::Build(q), instance), 0u);
}

TEST(OracleTest, ResultDigestIsPinned) {
  // bench/perf's RowDigest gives these values, so its expected digests
  // hold when the benchmark switches to ResultDigest.
  Relation relation(AttrSet::FromIds({0, 2, 5}));
  relation.AppendRow({1, 10, 100});
  relation.AppendRow({2, 20, 100});
  relation.AppendRow({7, 10, 0});
  EXPECT_EQ(ResultDigest(relation), 0x1ce79c0ce99603e7u);
  EXPECT_EQ(ValueFactor(2, 20), 0xef375bf0bf830701u);
  EXPECT_EQ(ResultDigest(Relation(AttrSet::FromIds({0}))), 0u);
}

TEST(OracleTest, SubjoinSizeExample32Style) {
  // Subjoin multiplies over tree-connected components (Definition 3.1).
  Hypergraph q = catalog::Path(3);  // R1(X0,X1) R2(X1,X2) R3(X2,X3)
  Instance instance(q);
  for (Value v = 0; v < 4; ++v) {
    instance[0].AppendRow({v, v});
    instance[1].AppendRow({v, v});
    instance[2].AppendRow({v, v});
  }
  auto tree = JoinTree::Build(q);
  ASSERT_TRUE(tree);
  EdgeSet ends;  // R1 and R3: disconnected on the tree
  ends.Insert(0);
  ends.Insert(2);
  EXPECT_EQ(SubjoinSize(q, *tree, instance, ends), 16u);  // 4 * 4
  EdgeSet all = q.AllEdges();
  EXPECT_EQ(SubjoinSize(q, *tree, instance, all), 4u);  // the diagonal join
  EXPECT_EQ(SubjoinSize(q, *tree, instance, EdgeSet()), 1u);
}

TEST(OracleTest, AgmBoundUniformMatchesRhoStar) {
  // Triangle: N^(3/2).
  EXPECT_NEAR(AgmBoundUniform(catalog::Triangle(), 100), 1000.0, 1e-6);
  // Box join: N^2.
  EXPECT_NEAR(AgmBoundUniform(catalog::BoxJoin(), 100), 10000.0, 1e-6);
}

TEST(OracleTest, AgmBoundDominatesActualOutput) {
  for (uint64_t seed : {5u, 6u}) {
    Hypergraph q = catalog::Triangle();
    Rng rng(seed);
    Instance instance = workload::UniformInstance(q, 50, 8, &rng);
    double bound = AgmBound(q, instance);
    EXPECT_GE(bound * 1.01, static_cast<double>(GenericJoin(q, instance).size()));
  }
}

}  // namespace
}  // namespace coverpack
