/// \file stats.h
/// \brief Lightweight per-attribute statistics for the plan chooser.
///
/// The cost model (cost_model.h) ranks the paper's algorithm menu from
/// three per-column summaries computed over every relation of an instance:
///
///  * an equi-width histogram over a power-of-two domain with a fixed
///    power-of-two bucket count — bucket boundaries of a narrower domain
///    nest *exactly* inside a wider one, so merging two histograms (widen
///    to the larger domain, fold buckets pairwise, add) is exact and
///    associative, and a histogram bucketed directly at its column's final
///    domain equals one grown value by value with Add();
///  * the exact distinct count and maximum degree (heaviest value's
///    occurrence count), read off as run lengths of the sorted column;
///  * the row count.
///
/// BuildRelationStats makes one serial pass per column: gather the column,
/// take its max (which fixes the final histogram domain), bucket every
/// value at that domain, then sort and scan the runs. Every output is a
/// function of the column's multiset of values alone, so the result cannot
/// depend on row order or on the thread count.
///
/// A StatsSnapshot bundles the per-relation summaries and extends the
/// service's structure-keyed StatsSignature: per-relation digests are
/// built from sorted per-column digests (invariant under attribute
/// renaming), paired with the canonical edge colors of the query shape
/// (invariant under relation renaming), sorted, and hashed. Isomorphic
/// queries over identically-distributed instances therefore share one
/// extended signature — and one PlanCache entry — while instances whose
/// statistics drift apart get distinct signatures even when their relation
/// sizes agree.

#ifndef COVERPACK_PLANNER_STATS_H_
#define COVERPACK_PLANNER_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "query/hypergraph.h"
#include "relation/instance.h"
#include "relation/relation.h"

namespace coverpack {
namespace planner {

/// Bucket count of every histogram; a power of two so domain widening
/// folds buckets exactly (pairs of narrow buckets tile one wide bucket).
inline constexpr uint32_t kHistogramBuckets = 16;

/// log2 of the smallest histogram domain: bucket width 1 at 16 buckets.
inline constexpr uint32_t kMinLog2Domain = 4;

/// Equi-width histogram over the value domain [0, 2^log2_domain).
struct ColumnHistogram {
  uint32_t log2_domain = kMinLog2Domain;
  uint64_t rows = 0;
  Value max_value = 0;  ///< meaningful only when rows > 0
  std::array<uint64_t, kHistogramBuckets> buckets{};

  /// Adds one value, widening the domain (exactly) as needed.
  void Add(Value value);

  /// Widens to a larger domain by folding buckets pairwise per doubling.
  /// Exact: the fold loses no information a wider histogram would have.
  void WidenTo(uint32_t target_log2_domain);

  /// Content digest, independent of construction order.
  uint64_t Digest() const;

  bool operator==(const ColumnHistogram& other) const = default;
};

/// Exact and associative merge (both sides widened to the max domain).
ColumnHistogram MergeHistograms(const ColumnHistogram& a, const ColumnHistogram& b);

/// The summary the cost model reads for one column of one relation.
struct ColumnStats {
  AttrId attr = 0;  ///< attribute id (not part of the digest: rename-free)
  uint64_t rows = 0;
  uint64_t distinct = 0;
  uint64_t max_degree = 0;  ///< heaviest value's occurrence count
  ColumnHistogram histogram;

  /// Rename-invariant content digest (excludes `attr`).
  uint64_t Digest() const;
};

/// All column summaries of one relation, in ascending-AttrId schema order.
struct RelationStats {
  uint64_t rows = 0;
  std::vector<ColumnStats> columns;

  const ColumnStats& ColumnFor(AttrId attr) const;

  /// Digest over the *sorted multiset* of column digests plus the row
  /// count — invariant under any permutation or renaming of attributes.
  uint64_t Digest() const;
};

/// Per-attribute statistics for a whole instance, indexed by EdgeId.
struct StatsSnapshot {
  std::vector<RelationStats> relations;
  uint64_t max_relation_rows = 0;  ///< the paper's N
  uint64_t total_rows = 0;

  std::vector<uint64_t> RelationSizes() const;

  /// Pretty rendering for differential-test repro output.
  std::string ToString(const Hypergraph& query) const;
};

/// Builds the column summaries of one relation, one sort-based pass per
/// column: a function of each column's multiset of values only.
RelationStats BuildRelationStats(const Relation& relation);

/// Builds the full snapshot (every relation of the instance).
StatsSnapshot BuildStatsSnapshot(const Hypergraph& query, const Instance& instance);

/// Extends a structure-keyed stats signature with the snapshot's content:
/// per-relation digests are paired with the canonical edge colors
/// (service::ShapeCanon::edge_colors — passed as a plain vector so the
/// planner does not depend on the service layer), sorted, hashed, and
/// combined with `base_signature`. Isomorphic queries over isomorphic
/// instances agree; drifting value distributions diverge.
uint64_t SnapshotSignature(const std::vector<uint64_t>& edge_colors,
                           const StatsSnapshot& snapshot, uint64_t base_signature);

}  // namespace planner
}  // namespace coverpack

#endif  // COVERPACK_PLANNER_STATS_H_
