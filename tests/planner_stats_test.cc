/// Property and metamorphic tests for the planner's statistics layer: a
/// differential check of the sort-based column summaries against a
/// std::map reference, what a column digest covers, rename invariance of
/// the stats signature (agreeing with CanonicalizeShape's isomorphism
/// classes), monotonicity under row
/// subsetting, invariance under thread count and row order, and PlanCache
/// eviction churn when same-shape queries drift apart in their statistics.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "planner/stats.h"
#include "query/catalog.h"
#include "query/hypergraph.h"
#include "relation/instance.h"
#include "relation/relation.h"
#include "service/plan_cache.h"
#include "service/query_shape.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/generators.h"

namespace coverpack {
namespace planner {
namespace {

using service::CachedPlan;
using service::CanonicalizeShape;
using service::PlanCache;
using service::PlanCacheKey;
using service::ShapeCanon;

/// The reference the sort-based builder must reproduce: each column's
/// degrees counted in a std::map.
RelationStats ReferenceStats(const Relation& relation) {
  RelationStats stats;
  stats.rows = relation.size();
  const std::vector<AttrId> attrs = relation.attrs().ToVector();
  for (size_t c = 0; c < attrs.size(); ++c) {
    ColumnStats column;
    column.attr = attrs[c];
    column.rows = relation.size();
    std::map<Value, uint64_t> counts;
    for (size_t i = 0; i < relation.size(); ++i) {
      counts[relation.row(i)[c]] += 1;
    }
    column.distinct = counts.size();
    for (const auto& [value, count] : counts) {
      column.max_degree = std::max(column.max_degree, count);
    }
    stats.columns.push_back(column);
  }
  return stats;
}

void ExpectMatchesReference(const Relation& relation, const std::string& label) {
  const RelationStats got = BuildRelationStats(relation);
  const RelationStats want = ReferenceStats(relation);
  EXPECT_EQ(got.rows, want.rows) << label;
  ASSERT_EQ(got.columns.size(), want.columns.size()) << label;
  for (size_t c = 0; c < want.columns.size(); ++c) {
    const ColumnStats& g = got.columns[c];
    const ColumnStats& w = want.columns[c];
    EXPECT_EQ(g.attr, w.attr) << label << " column " << c;
    EXPECT_EQ(g.rows, w.rows) << label << " column " << c;
    EXPECT_EQ(g.distinct, w.distinct) << label << " column " << c;
    EXPECT_EQ(g.max_degree, w.max_degree) << label << " column " << c;
    EXPECT_EQ(g.Digest(), w.Digest()) << label << " column " << c;
  }
  EXPECT_EQ(got.Digest(), want.Digest()) << label;
}

TEST(RelationStatsTest, MatchesReferenceOnEmptyRelation) {
  ExpectMatchesReference(Relation(AttrSet::FromIds({0, 3})), "empty");
}

TEST(RelationStatsTest, MatchesReferenceOnZeroWidthRows) {
  Relation r((AttrSet()));
  for (int i = 0; i < 5; ++i) r.AppendRow({});
  ASSERT_EQ(r.size(), 5u);
  ExpectMatchesReference(r, "zero-width");
}

TEST(RelationStatsTest, MatchesReferenceOnOneRepeatedValue) {
  Relation r(AttrSet::FromIds({1, 2}));
  for (int i = 0; i < 3000; ++i) r.AppendRow({42, 0});
  ExpectMatchesReference(r, "repeated");
  const RelationStats stats = BuildRelationStats(r);
  EXPECT_EQ(stats.columns[0].distinct, 1u);
  EXPECT_EQ(stats.columns[0].max_degree, 3000u);
}

TEST(RelationStatsTest, MatchesReferenceAtTheFullDomain) {
  // Values at and above 2^63 next to small ones: the summaries must not
  // depend on the magnitude of the values.
  Relation r(AttrSet::FromIds({0, 1}));
  Rng rng(0x64B17);
  for (int i = 0; i < 500; ++i) {
    const Value high = (uint64_t{1} << 63) | rng.Next();
    r.AppendRow({i % 3 == 0 ? rng.Uniform(16) : high, ~uint64_t{0} - rng.Uniform(4)});
  }
  ExpectMatchesReference(r, "full domain");
}

TEST(RelationStatsTest, MatchesReferenceOnLargeZipfRelation) {
  // A planner-sized relation: long runs of heavy values next to a long
  // tail of singletons.
  Rng rng(0x21FF);
  const Relation r = workload::Zipf(AttrSet::FromIds({0, 1, 2}), 20000, 20000, 1.1, &rng);
  ExpectMatchesReference(r, "zipf");
}

TEST(RelationStatsTest, MatchesReferenceOnRandomWidths) {
  Rng rng(0xD1FF);
  for (int trial = 0; trial < 40; ++trial) {
    const uint32_t width = 1 + static_cast<uint32_t>(rng.Uniform(4));
    std::vector<AttrId> ids;
    for (uint32_t a = 0; a < width; ++a) ids.push_back(static_cast<AttrId>(2 * a + trial % 2));
    Relation r(AttrSet::FromIds(ids));
    const size_t rows = rng.Uniform(3000);
    std::vector<Value> row(width);
    for (size_t i = 0; i < rows; ++i) {
      for (uint32_t a = 0; a < width; ++a) {
        // Domains from 1 value up to the full 64 bits, per column.
        const uint32_t log2_domain = static_cast<uint32_t>((trial + 13 * a) % 65);
        row[a] = log2_domain == 64 ? rng.Next() : rng.Uniform(uint64_t{1} << log2_domain);
      }
      r.AppendRow(row);
    }
    ExpectMatchesReference(r, "trial " + std::to_string(trial));
  }
}

TEST(ColumnStatsTest, DigestSeesRowsDistinctAndMaxDegreeButNotTheAttribute) {
  // The digest covers what the cost model and the join-order DP read.
  const ColumnStats base{/*attr=*/0, /*rows=*/100, /*distinct=*/10, /*max_degree=*/30};
  ColumnStats renamed = base;
  renamed.attr = 7;
  EXPECT_EQ(renamed.Digest(), base.Digest());
  ColumnStats more_rows = base;
  more_rows.rows = 101;
  ColumnStats more_distinct = base;
  more_distinct.distinct = 11;
  ColumnStats heavier = base;
  heavier.max_degree = 31;
  ColumnStats swapped = base;
  std::swap(swapped.rows, swapped.distinct);
  for (const ColumnStats* changed : {&more_rows, &more_distinct, &heavier, &swapped}) {
    EXPECT_NE(changed->Digest(), base.Digest())
        << changed->rows << " rows, " << changed->distinct << " distinct, max degree "
        << changed->max_degree;
  }
}

TEST(RelationStatsTest, DigestIsInvariantUnderAttributeRenaming) {
  // Same rows under two schemas over different AttrIds: the relation
  // digest must not see the names (it hashes the sorted column digests).
  Relation r1(AttrSet::FromIds({0, 1}));
  Relation r2(AttrSet::FromIds({5, 9}));
  Rng rng(0xCAFE);
  for (int i = 0; i < 200; ++i) {
    const Value x = rng.Uniform(1u << 12);
    const Value y = rng.Uniform(1u << 6);
    r1.AppendRow({x, y});
    r2.AppendRow({x, y});
  }
  EXPECT_EQ(BuildRelationStats(r1).Digest(), BuildRelationStats(r2).Digest());
}

TEST(RelationStatsTest, SubsettingRowsIsMonotone) {
  Relation full(AttrSet::FromIds({0, 1}));
  Relation half(AttrSet::FromIds({0, 1}));
  Rng rng(0x5B5E7);
  for (int i = 0; i < 300; ++i) {
    const Value x = rng.Uniform(1u << 14);
    const Value y = rng.Uniform(1u << 5);
    full.AppendRow({x, y});
    if (i % 2 == 0) half.AppendRow({x, y});
  }
  const RelationStats fs = BuildRelationStats(full);
  const RelationStats hs = BuildRelationStats(half);
  ASSERT_EQ(fs.columns.size(), hs.columns.size());
  EXPECT_LE(hs.rows, fs.rows);
  for (size_t c = 0; c < fs.columns.size(); ++c) {
    EXPECT_LE(hs.columns[c].distinct, fs.columns[c].distinct);
    EXPECT_LE(hs.columns[c].max_degree, fs.columns[c].max_degree);
  }
}

TEST(RelationStatsTest, StatsAreInvariantUnderThreadCountAndRowOrder) {
  // Every summary is a function of each column's multiset of values, so
  // neither the pool size nor a permutation of the rows may change it.
  const unsigned saved = ThreadPool::GlobalThreads();
  Relation r(AttrSet::FromIds({0, 1, 2}));
  Rng rng(0x7EA4);
  for (int i = 0; i < 10000; ++i) {
    r.AppendRow({rng.Uniform(1u << 16), rng.Uniform(1u << 8), rng.Uniform(4u)});
  }
  Relation reversed(r.attrs());
  for (size_t i = r.size(); i-- > 0;) reversed.AppendRow(r.row(i));
  ThreadPool::SetGlobalThreads(1);
  const RelationStats serial = BuildRelationStats(r);
  ThreadPool::SetGlobalThreads(4);
  const RelationStats parallel = BuildRelationStats(r);
  const RelationStats permuted = BuildRelationStats(reversed);
  ThreadPool::SetGlobalThreads(saved);
  for (const RelationStats* other : {&parallel, &permuted}) {
    ASSERT_EQ(serial.columns.size(), other->columns.size());
    EXPECT_EQ(serial.Digest(), other->Digest());
    for (size_t c = 0; c < serial.columns.size(); ++c) {
      EXPECT_EQ(serial.columns[c].distinct, other->columns[c].distinct);
      EXPECT_EQ(serial.columns[c].max_degree, other->columns[c].max_degree);
    }
  }
}

TEST(SnapshotSignatureTest, AgreesWithCanonicalShapeUnderRenaming) {
  // Two renderings of the same path shape: different attribute names,
  // different relation names, different insertion order. Canonicalization
  // must identify the shapes, and the stats signature must identify the
  // (shape, distribution) pairs when the instances match positionally.
  Hypergraph::Builder ba;
  ba.AddRelation("R", {"A", "B"});
  ba.AddRelation("S", {"B", "C"});
  const Hypergraph qa = ba.Build();

  Hypergraph::Builder bb;
  bb.AddRelation("T2", {"y", "z"});  // the S-position edge, added first
  bb.AddRelation("T1", {"x", "y"});
  const Hypergraph qb = bb.Build();

  const ShapeCanon ca = CanonicalizeShape(qa);
  const ShapeCanon cb = CanonicalizeShape(qb);
  ASSERT_EQ(ca.hash, cb.hash);
  ASSERT_EQ(ca.canonical_form, cb.canonical_form);

  const Instance ia = workload::MatchingInstance(qa, 512);
  const Instance ib = workload::MatchingInstance(qb, 512);
  const StatsSnapshot sa = BuildStatsSnapshot(qa, ia);
  const StatsSnapshot sb = BuildStatsSnapshot(qb, ib);
  EXPECT_EQ(SnapshotSignature(ca.edge_colors, sa), SnapshotSignature(cb.edge_colors, sb));
}

TEST(SnapshotSignatureTest, DriftingDistributionsDivergeAtEqualSizes) {
  // Same shape, same relation sizes, different value distributions: the
  // sizes agree, the signature must not.
  const Hypergraph q = catalog::Path(3);
  Rng rng(0xD41F7);
  const Instance uniform = workload::UniformInstance(q, 1024, 4096, &rng);
  const Instance zipf = workload::ZipfInstance(q, 1024, 4096, 1.2, &rng);
  const ShapeCanon canon = CanonicalizeShape(q);
  const StatsSnapshot su = BuildStatsSnapshot(q, uniform);
  const StatsSnapshot sz = BuildStatsSnapshot(q, zipf);
  ASSERT_EQ(su.RelationSizes(), sz.RelationSizes());
  EXPECT_NE(SnapshotSignature(canon.edge_colors, su), SnapshotSignature(canon.edge_colors, sz));
}

TEST(PlanCacheChurnTest, StatsSignatureDriftEvictsDeterministically) {
  // One shape, one p, a stream of drifting stats signatures: every drift is
  // a distinct key, so a capacity-4 cache must evict FIFO-of-recency and
  // its counters must account for every lookup exactly.
  PlanCache cache(4);
  const std::string form = "canonical-form";
  const auto key_for = [](uint64_t signature) {
    PlanCacheKey key;
    key.shape_hash = 0xABCD;
    key.p = 64;
    key.stats_signature = signature;
    return key;
  };
  for (uint64_t sig = 0; sig < 8; ++sig) {
    EXPECT_FALSE(cache.Lookup(key_for(sig), form).has_value());
    CachedPlan plan;
    plan.canonical_form = form;
    plan.planner_est_load = sig;
    cache.Insert(key_for(sig), plan);
  }
  const service::PlanCacheStats after = cache.stats();
  EXPECT_EQ(after.misses, 8u);
  EXPECT_EQ(after.insertions, 8u);
  EXPECT_EQ(after.evictions, 4u);
  EXPECT_EQ(after.size, 4u);
  // The four oldest signatures are gone; the four newest survive with
  // their planner artifacts intact.
  for (uint64_t sig = 0; sig < 4; ++sig) {
    EXPECT_FALSE(cache.Lookup(key_for(sig), form).has_value()) << sig;
  }
  for (uint64_t sig = 4; sig < 8; ++sig) {
    const auto hit = cache.Lookup(key_for(sig), form);
    ASSERT_TRUE(hit.has_value()) << sig;
    EXPECT_EQ(hit->planner_est_load, sig);
  }
}

}  // namespace
}  // namespace planner
}  // namespace coverpack
