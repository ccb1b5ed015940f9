#include "relation/relation.h"

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "query/parser.h"
#include "relation/instance.h"
#include "relation/operators.h"
#include "util/random.h"
#include "util/thread_pool.h"

#include "hash_collision.h"

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

/// Natural join by nested loops, in HashJoin's row order: ascending left
/// row, then ascending right row.
Relation NestedLoopJoin(const Relation& left, const Relation& right) {
  std::vector<uint32_t> left_keys, right_keys;
  for (AttrId attr : left.attrs().Intersect(right.attrs()).ToVector()) {
    left_keys.push_back(left.ColumnOf(attr));
    right_keys.push_back(right.ColumnOf(attr));
  }
  Relation output(left.attrs().Union(right.attrs()));
  std::vector<std::pair<bool, uint32_t>> plan;  // (from left, column)
  for (AttrId attr : output.attrs().ToVector()) {
    plan.emplace_back(left.attrs().Contains(attr),
                      left.attrs().Contains(attr) ? left.ColumnOf(attr) : right.ColumnOf(attr));
  }
  std::vector<Value> row(plan.size());
  for (size_t i = 0; i < left.size(); ++i) {
    const std::span<const Value> lrow = left.row(i);
    for (size_t j = 0; j < right.size(); ++j) {
      const std::span<const Value> rrow = right.row(j);
      bool match = true;
      for (size_t k = 0; k < left_keys.size() && match; ++k) {
        match = lrow[left_keys[k]] == rrow[right_keys[k]];
      }
      if (!match) continue;
      for (size_t k = 0; k < plan.size(); ++k) {
        row[k] = plan[k].first ? lrow[plan[k].second] : rrow[plan[k].second];
      }
      output.AppendRow(row);
    }
  }
  return output;
}

/// `rows` appended to a relation over `attrs` in a seeded shuffled order, so
/// that equal keys are spread over the row ids.
Relation Shuffled(AttrSet attrs, std::vector<std::vector<Value>> rows, Rng* rng) {
  rng->Shuffle(&rows);
  Relation relation(attrs);
  for (const std::vector<Value>& row : rows) relation.AppendRow(row);
  return relation;
}

// HashJoin and PendingJoin probe kJoinProbeGrain shards of their left rows
// on the pool, then write each shard at the sum of the earlier shards'
// counts. Every left side here spans at least four shards; the output must
// be the nested-loop join, in its order, at 1 and at 4 pool threads.
TEST(OperatorsTest, ShardedJoinsWriteTheNestedLoopRowsAtAnyPoolSize) {
  constexpr AttrId A = 0, B = 1, C = 2, D = 3, E = 4;
  Value a[2], b[2];  // two (A, B) keys with one HashRowKey
  testutil::CraftCollidingKeys(a, b);
  Rng rng(0x5A4DED);

  // left(A, B, C): Zipf-skewed (A, B) keys, the colliding pair, and a third
  // shard of keys that right lacks. C is the row id.
  const size_t n = 4 * kJoinProbeGrain + 517;
  const ZipfSampler zipf(48, 1.2);
  Relation left(AttrSet::FromIds({A, B, C}));
  for (size_t i = 0; i < n; ++i) {
    if (i / kJoinProbeGrain == 2) {
      left.AppendRow({1000 + i, 0, i});
    } else if (i % 97 == 0) {
      left.AppendRow({a[0], a[1], i});
    } else if (i % 89 == 0) {
      left.AppendRow({b[0], b[1], i});
    } else {
      const Value rank = zipf.Sample(&rng);
      left.AppendRow({rank, rank % 5, i});
    }
  }
  // right(A, B, D): the Zipf head key 300 times, ranks 1..39 once or twice,
  // ranks 40..47 never, key a once and key b twice.
  std::vector<std::vector<Value>> right_rows;
  for (Value d = 0; d < 300; ++d) right_rows.push_back({0, 0, d});
  for (Value rank = 1; rank < 40; ++rank) {
    for (Value copy = 0; copy <= rank % 2; ++copy) {
      right_rows.push_back({rank, rank % 5, 1000 + 2 * rank + copy});
    }
  }
  right_rows.push_back({a[0], a[1], 2000});
  right_rows.push_back({b[0], b[1], 2001});
  right_rows.push_back({b[0], b[1], 2002});
  const Relation right = Shuffled(AttrSet::FromIds({A, B, D}), std::move(right_rows), &rng);

  Relation cartesian(AttrSet::Single(E));  // no attribute shared with left
  for (Value v : {7, 3, 5}) cartesian.AppendRow({v});
  Relation nullary((AttrSet()));
  for (size_t i = 0; i < n; ++i) nullary.AppendRow({});
  Relation two_empty_tuples((AttrSet()));
  two_empty_tuples.AppendRow({});
  two_empty_tuples.AppendRow({});

  // A three-input MultiwayJoin: s(A, B) ⋈ t(B, C) is folded first (sizes
  // ascend s, t, u), and the fold, over four shards or more, probes u on
  // (B, C), where the colliding keys sit.
  const ZipfSampler zipf_b(30, 1.1);
  std::vector<std::vector<Value>> s_rows, t_rows, u_rows;
  for (Value i = 0; i < 300; ++i) {
    s_rows.push_back({i, i % 40 == 7 ? a[0] : i % 40 == 9 ? b[0] : 100 + zipf_b.Sample(&rng)});
  }
  for (Value c = 0; c < 80; ++c) t_rows.push_back({100, c});
  for (Value rank = 1; rank < 30; ++rank) {
    for (Value c = 0; c < 12; ++c) t_rows.push_back({100 + rank, (rank * 7 + c) % 13});
  }
  t_rows.push_back({a[0], a[1]});
  t_rows.push_back({b[0], b[1]});
  for (Value c = 0; c < 80; c += 4) {
    for (Value copy = 0; copy < 3; ++copy) u_rows.push_back({100, c, 10 * c + copy});
  }
  for (Value rank = 1; rank < 30; ++rank) {
    for (Value c = 0; c < 13; ++c) u_rows.push_back({100 + rank, c, 1000 + rank * 13 + c});
  }
  for (Value copy = 0; copy < 2; ++copy) u_rows.push_back({a[0], a[1], 5000 + copy});
  u_rows.push_back({b[0], b[1], 6000});
  const Relation s = Shuffled(AttrSet::FromIds({A, B}), std::move(s_rows), &rng);
  const Relation t = Shuffled(AttrSet::FromIds({B, C}), std::move(t_rows), &rng);
  const Relation u = Shuffled(AttrSet::FromIds({B, C, D}), std::move(u_rows), &rng);
  ASSERT_LT(s.size(), t.size());
  ASSERT_LT(t.size(), u.size());
  const Relation fold = NestedLoopJoin(s, t);
  ASSERT_GT(ThreadPool::NumShards(0, fold.size(), kJoinProbeGrain), 3u);

  const std::vector<Relation> expected = {
      NestedLoopJoin(left, right),        NestedLoopJoin(left, cartesian),
      NestedLoopJoin(nullary, cartesian), NestedLoopJoin(left, two_empty_tuples),
      NestedLoopJoin(nullary, two_empty_tuples), NestedLoopJoin(fold, u),
  };
  // The reference has what the inputs were built for: a shard with no
  // match, a key with hundreds, and both colliding keys matched.
  size_t third_shard_rows = 0, head_rows = 0, a_rows = 0, b_rows = 0;
  for (size_t i = 0; i < expected[0].size(); ++i) {
    const std::span<const Value> row = expected[0].row(i);  // A, B, C, D
    third_shard_rows += row[2] / kJoinProbeGrain == 2;
    head_rows += row[0] == 0;
    a_rows += row[0] == a[0] && row[1] == a[1];
    b_rows += row[0] == b[0] && row[1] == b[1];
  }
  EXPECT_EQ(third_shard_rows, 0u);
  EXPECT_GE(head_rows, 300u);
  EXPECT_GT(a_rows, 0u);
  EXPECT_GT(b_rows, 0u);

  const unsigned saved_threads = ThreadPool::GlobalThreads();
  for (unsigned threads : {1u, 4u}) {
    ThreadPool::SetGlobalThreads(threads);
    const std::vector<Relation> joined = {
        HashJoin(left, right),        HashJoin(left, cartesian),
        HashJoin(nullary, cartesian), HashJoin(left, two_empty_tuples),
        HashJoin(nullary, two_empty_tuples), MultiwayJoin({&u, &s, &t}),
    };
    for (size_t k = 0; k < joined.size(); ++k) {
      SCOPED_TRACE("join " + std::to_string(k) + " at " + std::to_string(threads) + " threads");
      EXPECT_EQ(joined[k].attrs(), expected[k].attrs());
      EXPECT_EQ(joined[k].size(), expected[k].size());
      EXPECT_TRUE(joined[k].raw() == expected[k].raw());
    }
  }
  ThreadPool::SetGlobalThreads(saved_threads);
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
