#include "relation/relation.h"

#include <gtest/gtest.h>

#include <optional>

#include "query/parser.h"
#include "relation/instance.h"
#include "relation/operators.h"

namespace coverpack {
namespace {

Relation MakeAB() {
  Relation r(AttrSet::FromIds({0, 1}));  // A=0, B=1
  r.AppendRow({1, 10});
  r.AppendRow({1, 11});
  r.AppendRow({2, 10});
  return r;
}

TEST(RelationTest, RowAccessAndColumns) {
  Relation r = MakeAB();
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.width(), 2u);
  EXPECT_EQ(r.ColumnOf(0), 0u);
  EXPECT_EQ(r.ColumnOf(1), 1u);
  EXPECT_EQ(r.At(1, 1), 11u);
}

TEST(RelationTest, ColumnOfSparseSchema) {
  Relation r(AttrSet::FromIds({2, 5, 9}));
  EXPECT_EQ(r.ColumnOf(2), 0u);
  EXPECT_EQ(r.ColumnOf(5), 1u);
  EXPECT_EQ(r.ColumnOf(9), 2u);
}

TEST(RelationTest, DedupAndCompare) {
  Relation r = MakeAB();
  r.AppendRow({1, 10});
  r.Dedup();
  EXPECT_EQ(r.size(), 3u);
  EXPECT_TRUE(r.SameContentAs(MakeAB()));
  Relation other = MakeAB();
  other.AppendRow({9, 9});
  EXPECT_FALSE(r.SameContentAs(other));
}

TEST(RelationTest, NullaryRelationCountsEmptyTuples) {
  // Regression: AppendRow({}) on a zero-width schema used to be a silent
  // no-op (size() inferred 0-or-1 from the flat storage). Nullary relations
  // are boolean subquery results and must count rows like any other schema.
  Relation r((AttrSet()));
  EXPECT_EQ(r.width(), 0u);
  EXPECT_TRUE(r.empty());
  r.AppendRow({});
  r.AppendRow({});
  EXPECT_EQ(r.size(), 2u);
  EXPECT_FALSE(r.empty());
  r.Dedup();  // copies of the empty tuple dedup to one
  EXPECT_EQ(r.size(), 1u);
  r.Clear();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_TRUE(r.empty());
}

TEST(RelationTest, NullarySameContentComparesRowCounts) {
  Relation two((AttrSet())), also_two((AttrSet())), one((AttrSet()));
  two.AppendRow({});
  two.AppendRow({});
  also_two.AppendRow({});
  also_two.AppendRow({});
  one.AppendRow({});
  EXPECT_TRUE(two.SameContentAs(also_two));
  EXPECT_FALSE(two.SameContentAs(one));
}

TEST(RelationTest, AppendRowsBulkMatchesPerRowAppends) {
  Relation bulk = MakeAB();
  Relation target(bulk.attrs());
  target.AppendRows(bulk.raw().data(), bulk.size());
  EXPECT_EQ(target.size(), 3u);
  EXPECT_TRUE(target.SameContentAs(bulk));
  // AppendAll concatenates whole relations.
  target.AppendAll(bulk);
  EXPECT_EQ(target.size(), 6u);
  // Nullary bulk appends advance the row count too.
  Relation nullary((AttrSet()));
  nullary.AppendRows(nullptr, 4);
  EXPECT_EQ(nullary.size(), 4u);
}

TEST(RelationTest, SortRowsOrdersLexicographically) {
  Relation r(AttrSet::FromIds({0, 1}));
  r.AppendRow({2, 10});
  r.AppendRow({1, 11});
  r.AppendRow({1, 10});
  r.SortRows();
  EXPECT_EQ(r.row(0)[0], 1u);
  EXPECT_EQ(r.row(0)[1], 10u);
  EXPECT_EQ(r.row(1)[1], 11u);
  EXPECT_EQ(r.row(2)[0], 2u);
}

TEST(OperatorsTest, SelectAndSelectIn) {
  Relation r = MakeAB();
  Relation sel = Select(r, 0, 1);
  EXPECT_EQ(sel.size(), 2u);
  Relation sel_in = SelectIn(r, 1, {10});
  EXPECT_EQ(sel_in.size(), 2u);
}

TEST(OperatorsTest, ProjectDeduplicates) {
  Relation r = MakeAB();
  Relation p = Project(r, AttrSet::Single(0));
  EXPECT_EQ(p.size(), 2u);  // values 1 and 2
  EXPECT_EQ(p.width(), 1u);
}

TEST(OperatorsTest, DistinctValues) {
  Relation r = MakeAB();
  EXPECT_EQ(DistinctValues(r, 0), (std::vector<Value>{1, 2}));
  EXPECT_EQ(DistinctValues(r, 1), (std::vector<Value>{10, 11}));
}

TEST(OperatorsTest, SemiJoinKeepsMatching) {
  Relation left = MakeAB();
  Relation right(AttrSet::FromIds({1, 2}));  // B, C
  right.AppendRow({10, 100});
  Relation result = SemiJoin(left, right);
  EXPECT_EQ(result.size(), 2u);  // the two B=10 rows
}

TEST(OperatorsTest, SemiJoinDisjointSchemas) {
  Relation left = MakeAB();
  Relation right(AttrSet::Single(5));
  EXPECT_TRUE(SemiJoin(left, right).empty());  // right empty
  right.AppendRow({7});
  EXPECT_EQ(SemiJoin(left, right).size(), left.size());
}

TEST(OperatorsTest, HashJoinNatural) {
  Relation left = MakeAB();
  Relation right(AttrSet::FromIds({1, 2}));  // B, C
  right.AppendRow({10, 100});
  right.AppendRow({10, 101});
  Relation joined = HashJoin(left, right);
  // (1,10) and (2,10) each join with two C values.
  EXPECT_EQ(joined.size(), 4u);
  EXPECT_EQ(joined.attrs(), AttrSet::FromIds({0, 1, 2}));
}

TEST(OperatorsTest, HashJoinCartesianWhenDisjoint) {
  Relation left = MakeAB();
  Relation right(AttrSet::Single(5));
  right.AppendRow({7});
  right.AppendRow({8});
  EXPECT_EQ(HashJoin(left, right).size(), 6u);
}

TEST(OperatorsTest, MultiwayJoinTriangleShape) {
  Relation ab(AttrSet::FromIds({0, 1}));
  ab.AppendRow({1, 2});
  Relation bc(AttrSet::FromIds({1, 2}));
  bc.AppendRow({2, 3});
  Relation ca(AttrSet::FromIds({0, 2}));
  ca.AppendRow({1, 3});
  Relation result = MultiwayJoin({&ab, &bc, &ca});
  EXPECT_EQ(result.size(), 1u);
  EXPECT_EQ(result.row(0)[0], 1u);
  EXPECT_EQ(result.row(0)[1], 2u);
  EXPECT_EQ(result.row(0)[2], 3u);
}

TEST(OperatorsTest, EmptyMultiwayJoinKeepsTheUnionSchema) {
  // R(A) is empty, so the join is empty after its first step; its schema is
  // still A, B, C.
  Relation r(AttrSet::Single(0));
  Relation s(AttrSet::Single(1));
  s.AppendRow({1});
  s.AppendRow({2});
  Relation t(AttrSet::Single(2));
  t.AppendRow({3});
  t.AppendRow({4});
  t.AppendRow({5});
  const Relation result = MultiwayJoin({&r, &s, &t});
  EXPECT_EQ(result.width(), 3u);
  EXPECT_EQ(result.attrs(), AttrSet::FromIds({0, 1, 2}));
  EXPECT_EQ(result.size(), 0u);
}

TEST(OperatorsTest, DegreeHistogram) {
  Relation r = MakeAB();
  auto histogram = DegreeHistogram(r, 0);
  ASSERT_EQ(histogram.size(), 2u);
  EXPECT_EQ(histogram[0], (std::pair<Value, uint64_t>{1, 2}));
  EXPECT_EQ(histogram[1], (std::pair<Value, uint64_t>{2, 1}));
}

TEST(OperatorsTest, ResidualInstanceSlicesTheHeavyValue) {
  // Q_A[1] of R1(A,B), R2(A,C), R3(C,D): R1 and R2 keep their A = 1 rows
  // without column A; R3 is copied whole.
  Hypergraph q = ParseQuery("R1(A,B), R2(A,C), R3(C,D)");
  const AttrId a = *q.FindAttribute("A");
  Instance instance(q);
  instance[0].AppendRow({1, 10});
  instance[0].AppendRow({2, 20});
  instance[0].AppendRow({1, 11});
  instance[1].AppendRow({1, 5});
  instance[1].AppendRow({3, 6});
  instance[2].AppendRow({5, 7});
  instance[2].AppendRow({6, 8});
  const Hypergraph residual = q.Residual(AttrSet::Single(a));
  std::optional<Instance> sliced = ResidualInstance(q, instance, residual, a, 1);
  ASSERT_TRUE(sliced.has_value());
  sliced->CheckAgainst(residual);
  ASSERT_EQ((*sliced)[0].size(), 2u);
  EXPECT_EQ((*sliced)[0].row(0)[0], 10u);
  EXPECT_EQ((*sliced)[0].row(1)[0], 11u);
  ASSERT_EQ((*sliced)[1].size(), 1u);
  EXPECT_EQ((*sliced)[1].row(0)[0], 5u);
  EXPECT_TRUE((*sliced)[2].SameContentAs(instance[2]));
  // A = 2 has no R2 row, A = 3 no R1 row: no result has either value.
  EXPECT_FALSE(ResidualInstance(q, instance, residual, a, 2).has_value());
  EXPECT_FALSE(ResidualInstance(q, instance, residual, a, 3).has_value());
}

TEST(OperatorsTest, ResidualInstanceChecksRelationsOnTheValueAlone) {
  // R2(A) vanishes from the residual query Q_A but still filters A.
  Hypergraph q = ParseQuery("R1(A,B), R2(A)");
  const AttrId a = *q.FindAttribute("A");
  Instance instance(q);
  instance[0].AppendRow({1, 10});
  instance[0].AppendRow({2, 20});
  instance[1].AppendRow({2});
  const Hypergraph residual = q.Residual(AttrSet::Single(a));
  ASSERT_EQ(residual.num_edges(), 1u);
  EXPECT_FALSE(ResidualInstance(q, instance, residual, a, 1).has_value());
  std::optional<Instance> sliced = ResidualInstance(q, instance, residual, a, 2);
  ASSERT_TRUE(sliced.has_value());
  ASSERT_EQ((*sliced)[0].size(), 1u);
  EXPECT_EQ((*sliced)[0].row(0)[0], 20u);
}

}  // namespace
}  // namespace coverpack
