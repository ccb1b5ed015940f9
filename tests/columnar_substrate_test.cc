/// \file columnar_substrate_test.cc
/// \brief Tests for the columnar execution substrate: the arena scratch
/// allocator, the radix-partitioned grouped key index, key-equality
/// soundness under crafted 64-bit hash collisions, overflow guards on
/// Relation growth, and zero-width (nullary) relations through every new
/// columnar path.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "relation/join_index.h"
#include "relation/operators.h"
#include "relation/relation.h"
#include "util/arena.h"
#include "util/hash.h"
#include "util/ledger.h"

namespace coverpack {
namespace {

// ---------------------------------------------------------------------------
// Arena

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena;
  auto* a = arena.AllocateArray<uint64_t>(10);
  auto* b = arena.AllocateArray<uint32_t>(7);
  auto* c = arena.AllocateArray<uint64_t>(3);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % alignof(uint64_t), 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % alignof(uint32_t), 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % alignof(uint64_t), 0u);
  for (int i = 0; i < 10; ++i) a[i] = 1;
  for (int i = 0; i < 7; ++i) b[i] = 2;
  for (int i = 0; i < 3; ++i) c[i] = 3;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a[i], 1u);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(b[i], 2u);
  EXPECT_EQ(arena.used(), 10 * sizeof(uint64_t) + 7 * sizeof(uint32_t) + 3 * sizeof(uint64_t));
}

TEST(ArenaTest, ResetKeepsPagesAndRewindsUsage) {
  Arena arena;
  arena.AllocateArray<char>(1 << 18);  // forces past the first 64 KiB page
  size_t pages = arena.num_pages();
  size_t reserved = arena.reserved();
  EXPECT_GE(pages, 1u);
  arena.Reset();
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.num_pages(), pages);     // pages survive Reset...
  EXPECT_EQ(arena.reserved(), reserved);   // ...so steady state reallocates nothing
  arena.AllocateArray<char>(1 << 18);
  EXPECT_EQ(arena.num_pages(), pages);
}

TEST(ArenaTest, OversizedRequestGetsDedicatedPage) {
  Arena arena;
  size_t huge = Arena::kMinPageBytes * 4;
  char* p = arena.AllocateArray<char>(huge);
  p[0] = 'x';
  p[huge - 1] = 'y';
  EXPECT_EQ(p[0], 'x');
  EXPECT_EQ(p[huge - 1], 'y');
  EXPECT_GE(arena.used(), huge);
}

TEST(ArenaTest, MarkRewindRestoresFrame) {
  Arena arena;
  arena.AllocateArray<uint64_t>(100);
  Arena::Mark mark = arena.Position();
  size_t used_at_mark = arena.used();
  arena.AllocateArray<uint64_t>(5000);
  EXPECT_GT(arena.used(), used_at_mark);
  arena.RewindTo(mark);
  EXPECT_EQ(arena.used(), used_at_mark);
}

TEST(ArenaVectorTest, GrowthPreservesContents) {
  Arena arena;
  ArenaVector<uint32_t> v(&arena);
  EXPECT_TRUE(v.empty());
  for (uint32_t i = 0; i < 1000; ++i) v.push_back(i * 3);
  ASSERT_EQ(v.size(), 1000u);
  for (uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(v[i], i * 3);
  EXPECT_EQ(v.back(), 999u * 3);
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(ArenaScopeTest, NestedScopesStackAndRecordTelemetry) {
  Ledger::Global().Reset("memory.");
  Arena arena;
  {
    ArenaScope outer(&arena);
    outer.arena()->AllocateArray<uint64_t>(8);
    EXPECT_EQ(outer.used(), 8 * sizeof(uint64_t));
    {
      ArenaScope inner(&arena);
      inner.arena()->AllocateArray<uint64_t>(4);
      EXPECT_EQ(inner.used(), 4 * sizeof(uint64_t));
    }
    // The inner frame rewound its own allocations only.
    EXPECT_EQ(outer.used(), 8 * sizeof(uint64_t));
  }
  EXPECT_EQ(arena.used(), 0u);
  const Metrics ledger = Ledger::Global().Read("memory.");
  EXPECT_EQ(ledger.CounterValue("memory.arena_scopes"), 2u);
  EXPECT_EQ(ledger.CounterValue("memory.arena_bytes_total"), 12 * sizeof(uint64_t));
  EXPECT_EQ(ledger.MaxValue("memory.arena_high_water_bytes"), 8 * sizeof(uint64_t));
  Ledger::Global().Reset("memory.");
  EXPECT_EQ(Ledger::Global().Read("memory."), Metrics());
}

TEST(ArenaScopeTest, ScopeThatEmptiesTheArenaFreesLargePages) {
  Arena arena;
  {
    ArenaScope scope(&arena);
    scope.arena()->AllocateArray<char>(Arena::kMinPageBytes / 2);
    scope.arena()->AllocateArray<char>(Arena::kRetainedBytes * 2);  // a page of its own
    EXPECT_EQ(arena.num_pages(), 2u);
  }
  EXPECT_TRUE(arena.empty());
  EXPECT_EQ(arena.num_pages(), 1u);  // the small first page stays
  EXPECT_EQ(arena.reserved(), Arena::kMinPageBytes);

  {
    ArenaScope outer(&arena);
    outer.arena()->AllocateArray<uint64_t>(2);
    {
      ArenaScope inner(&arena);
      inner.arena()->AllocateArray<char>(Arena::kRetainedBytes * 2);
    }
    // The outer frame's rows are still live, so no page is freed yet.
    EXPECT_FALSE(arena.empty());
    EXPECT_EQ(arena.num_pages(), 2u);
  }
  EXPECT_EQ(arena.num_pages(), 1u);
  EXPECT_EQ(arena.reserved(), Arena::kMinPageBytes);
}

// ---------------------------------------------------------------------------
// Crafted hash collisions: key-equality soundness of the grouped index.
//
// MixHash is bijective (xorshift-by-33 is an involution for 64-bit words,
// and both multipliers are odd), so single-column keys cannot collide and a
// genuine collision needs two columns. We invert MixHash with the modular
// inverses of the Murmur3 multipliers and solve
//   HashCombine(s_a, a1) == HashCombine(s_b, b1)
// for b1 given everything else — yielding two distinct (v0, v1) keys whose
// full 64-bit HashRowKey values are equal.

uint64_t ModInverse64(uint64_t m) {
  uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - m * inv;  // Newton iteration mod 2^64
  return inv;
}

uint64_t InverseMixHash(uint64_t y) {
  y ^= y >> 33;
  y *= ModInverse64(0xC4CEB9FE1A85EC53ull);
  y ^= y >> 33;
  y *= ModInverse64(0xFF51AFD7ED558CCDull);
  y ^= y >> 33;
  return y;
}

/// Returns two distinct two-column keys with identical HashRowKey.
void CraftCollidingKeys(Value out_a[2], Value out_b[2]) {
  constexpr uint64_t kFnv = 0xCBF29CE484222325ull;
  constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ull;
  const Value a0 = 17, a1 = 42, b0 = 99;  // arbitrary, a0 != b0
  uint64_t s_a = HashCombine(kFnv, a0);
  uint64_t s_b = HashCombine(kFnv, b0);
  uint64_t target = HashCombine(s_a, a1);
  // HashCombine(s, v) = s ^ (MixHash(v) + kGolden + (s<<6) + (s>>2)).
  uint64_t mix_b1 = (s_b ^ target) - kGolden - (s_b << 6) - (s_b >> 2);
  Value b1 = InverseMixHash(mix_b1);
  out_a[0] = a0;
  out_a[1] = a1;
  out_b[0] = b0;
  out_b[1] = b1;
}

TEST(HashCollisionTest, CraftedKeysActuallyCollide) {
  EXPECT_EQ(InverseMixHash(MixHash(0xDEADBEEFCAFEull)), 0xDEADBEEFCAFEull);
  Value a[2], b[2];
  CraftCollidingKeys(a, b);
  const uint32_t cols[2] = {0, 1};
  ASSERT_TRUE(a[0] != b[0] || a[1] != b[1]);
  ASSERT_EQ(HashRowKey(a, cols, 2), HashRowKey(b, cols, 2))
      << "collision construction broke; the soundness tests below would be vacuous";
}

TEST(HashCollisionTest, GroupedIndexGroupsByHashButCallersVerifyKeys) {
  Value a[2], b[2];
  CraftCollidingKeys(a, b);
  Relation rel(AttrSet::FromIds({0, 1}));
  rel.AppendRow({a[0], a[1]});
  rel.AppendRow({b[0], b[1]});

  Arena arena;
  GroupedKeyIndex index(&arena);
  const uint32_t cols[2] = {0, 1};
  index.Build(rel, cols, 2);
  // Both rows share the 64-bit hash, so they land in ONE group — the
  // documented contract that makes caller-side key verification mandatory.
  EXPECT_EQ(index.num_groups(), 1u);
  auto candidates = index.Probe(HashRowKey(a, cols, 2));
  EXPECT_EQ(candidates.end - candidates.begin, 2);
  EXPECT_FALSE(RowKeysEqual(a, cols, b, cols, 2));
}

TEST(HashCollisionTest, SemiJoinAndHashJoinStaySoundUnderCollision) {
  Value a[2], b[2];
  CraftCollidingKeys(a, b);
  AttrSet schema = AttrSet::FromIds({0, 1});
  Relation left(schema), right(schema);
  left.AppendRow({a[0], a[1]});
  right.AppendRow({b[0], b[1]});

  // Same hash, different keys: no matches may be emitted.
  EXPECT_TRUE(SemiJoin(left, right).empty());
  EXPECT_TRUE(HashJoin(left, right).empty());

  // With the genuinely equal key added, exactly the real match survives.
  right.AppendRow({a[0], a[1]});
  Relation reduced = SemiJoin(left, right);
  ASSERT_EQ(reduced.size(), 1u);
  EXPECT_EQ(reduced.row(0)[0], a[0]);
  EXPECT_EQ(reduced.row(0)[1], a[1]);
  EXPECT_EQ(HashJoin(left, right).size(), 1u);
}

TEST(HashCollisionTest, KeyedWeightSumsKeepsCollidingKeysSeparate) {
  Value a[2], b[2];
  CraftCollidingKeys(a, b);
  Relation rel(AttrSet::FromIds({0, 1}));
  rel.AppendRow({a[0], a[1]});
  rel.AppendRow({b[0], b[1]});
  rel.AppendRow({a[0], a[1]});
  const uint64_t weights[3] = {5, 7, 11};

  Arena arena;
  KeyedWeightSums sums(&arena);
  const uint32_t cols[2] = {0, 1};
  sums.Build(rel, cols, 2, weights);
  EXPECT_EQ(sums.Lookup(a, cols), 16u);  // 5 + 11, never the colliding 7
  EXPECT_EQ(sums.Lookup(b, cols), 7u);
  const Value absent[2] = {a[0], a[1] + 1};
  EXPECT_EQ(sums.Lookup(absent, cols), 0u);
}

TEST(HashCollisionTest, KeyedWeightSumsAddInTheirSemiring) {
  Value a[2], b[2];
  CraftCollidingKeys(a, b);
  Relation rel(AttrSet::FromIds({0, 1}));
  rel.AppendRow({a[0], a[1]});
  rel.AppendRow({b[0], b[1]});
  rel.AppendRow({a[0], a[1]});
  const uint64_t weights[3] = {5, 7, 11};

  Arena arena;
  KeyedWeightSums<TropicalSemiring> sums(&arena);
  const uint32_t cols[2] = {0, 1};
  sums.Build(rel, cols, 2, weights);
  EXPECT_EQ(sums.Lookup(a, cols), 5u);  // min(5, 11), never the colliding 7
  EXPECT_EQ(sums.Lookup(b, cols), 7u);
  const Value absent[2] = {a[0], a[1] + 1};
  EXPECT_EQ(sums.Lookup(absent, cols), TropicalSemiring::Zero());
  sums.Build(rel, cols, 2, nullptr);  // null weights: One() = 0 for every row
  EXPECT_EQ(sums.Lookup(a, cols), 0u);
}

// ---------------------------------------------------------------------------
// Overflow guards on Relation growth.

TEST(RelationOverflowTest, SafeSizesPassTheGuard) {
  Relation r(AttrSet::FromIds({0, 1, 2}));
  r.Reserve(1024);
  Value* out = r.AppendUninitialized(2);
  for (int i = 0; i < 6; ++i) out[i] = static_cast<Value>(i);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.row(1)[2], 5u);
}

#ifndef NDEBUG
TEST(RelationOverflowDeathTest, ReserveRejectsRowCountOverflow) {
  Relation r(AttrSet::FromIds({0, 1, 2}));
  // rows * width would wrap size_t.
  EXPECT_DEATH(r.Reserve(std::numeric_limits<size_t>::max() / 2), "RowCountFits");
}

// At width 2, SIZE_MAX / 2 rows still fit (2 * rows == SIZE_MAX - 1); one
// more row is the first count whose value total wraps size_t.
TEST(RelationOverflowDeathTest, AppendRowsRejectsRowCountOverflow) {
  Relation r(AttrSet::FromIds({0, 1}));
  Value row[2] = {1, 2};
  EXPECT_DEATH(r.AppendRows(row, std::numeric_limits<size_t>::max() / 2 + 1), "RowCountFits");
}

TEST(RelationOverflowDeathTest, AppendUninitializedRejectsRowCountOverflow) {
  Relation r(AttrSet::FromIds({0, 1}));
  EXPECT_DEATH(r.AppendUninitialized(std::numeric_limits<size_t>::max() / 2 + 1),
               "RowCountFits");
}
#endif  // !NDEBUG

// ---------------------------------------------------------------------------
// Zero-width (nullary) relations through the columnar paths.

Relation Nullary(size_t rows) {
  Relation r((AttrSet()));
  for (size_t i = 0; i < rows; ++i) r.AppendRow({});
  return r;
}

TEST(ZeroWidthTest, DedupCollapsesToOneEmptyTuple) {
  Relation r = Nullary(5);
  r.Dedup();
  EXPECT_EQ(r.size(), 1u);
  r.Dedup();  // idempotent, including on the single-row result
  EXPECT_EQ(r.size(), 1u);
}

TEST(ZeroWidthTest, SortRowsAndSameContentAs) {
  Relation a = Nullary(3);
  Relation b = Nullary(3);
  a.SortRows();
  EXPECT_TRUE(a.SameContentAs(b));
  EXPECT_FALSE(a.SameContentAs(Nullary(2)));
}

TEST(ZeroWidthTest, JoinsOverNullaryOperands) {
  // Disjoint-schema semijoin against a nonempty nullary right keeps left.
  Relation left(AttrSet::FromIds({0}));
  left.AppendRow({7});
  left.AppendRow({8});
  Relation reduced = SemiJoin(left, Nullary(2));
  EXPECT_TRUE(reduced.SameContentAs(left));
  EXPECT_TRUE(SemiJoin(left, Nullary(0)).empty());

  // Nullary x unary hash join = cross product on the shared empty key.
  Relation joined = HashJoin(Nullary(2), left);
  EXPECT_EQ(joined.attrs(), left.attrs());
  EXPECT_EQ(joined.size(), 4u);

  // Nullary x nullary: all-empty keys match pairwise.
  Relation both = HashJoin(Nullary(2), Nullary(3));
  EXPECT_EQ(both.width(), 0u);
  EXPECT_EQ(both.size(), 6u);
}

TEST(ZeroWidthTest, ProjectToEmptySchemaDedups) {
  Relation r(AttrSet::FromIds({3}));
  r.AppendRow({1});
  r.AppendRow({2});
  Relation projected = Project(r, AttrSet());
  EXPECT_EQ(projected.width(), 0u);
  EXPECT_EQ(projected.size(), 1u);  // projection dedups: one empty tuple
}

TEST(ZeroWidthTest, GroupedIndexAtWidthZero) {
  Relation r = Nullary(4);
  Arena arena;
  GroupedKeyIndex index(&arena);
  index.Build(r, nullptr, 0);
  EXPECT_EQ(index.num_groups(), 1u);  // every row has the same (empty) key
  uint64_t empty_hash = HashRowKey(nullptr, nullptr, 0);
  auto candidates = index.Probe(empty_hash);
  EXPECT_EQ(candidates.end - candidates.begin, 4);

  KeyedWeightSums sums(&arena);
  sums.Build(r, nullptr, 0, nullptr);  // null weights = all ones
  EXPECT_EQ(sums.Lookup(nullptr, nullptr), 4u);
}

}  // namespace
}  // namespace coverpack
