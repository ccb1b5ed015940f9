/// \file stats.h
/// \brief Lightweight per-attribute statistics for the plan chooser.
///
/// The cost model (cost_model.h) and the join-order DP rank the paper's
/// algorithm menu from what these summaries hold, per column of every
/// relation of an instance:
///
///  * the exact distinct count and maximum degree (heaviest value's
///    occurrence count), read off as run lengths of the sorted column;
///  * the row count.
///
/// BuildRelationStats makes one serial pass per column: gather the column,
/// sort it and scan the runs. Every output is a function of the column's
/// multiset of values alone, so the result cannot depend on row order or on
/// the thread count.
///
/// A StatsSnapshot keys the service's PlanCache by exactly what the chooser
/// reads: per-relation digests are built from the row count and sorted
/// per-column digests (invariant under attribute renaming), paired with the
/// canonical edge colors of the query shape (invariant under relation
/// renaming), sorted, and hashed. Isomorphic queries over
/// identically-distributed instances therefore share one signature — and
/// one PlanCache entry — while instances whose distinct counts or degrees
/// drift apart get distinct signatures even when their relation sizes
/// agree.

#ifndef COVERPACK_PLANNER_STATS_H_
#define COVERPACK_PLANNER_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/hypergraph.h"
#include "relation/instance.h"
#include "relation/relation.h"

namespace coverpack {
namespace planner {

/// The summary the cost model reads for one column of one relation.
struct ColumnStats {
  AttrId attr = 0;  ///< attribute id (not part of the digest: rename-free)
  uint64_t rows = 0;
  uint64_t distinct = 0;
  uint64_t max_degree = 0;  ///< heaviest value's occurrence count

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

/// The snapshot's structure-keyed signature: per-relation digests (each
/// carrying its row count) are paired with the canonical edge colors
/// (service::ShapeCanon::edge_colors — passed as a plain vector so the
/// planner does not depend on the service layer), sorted and hashed.
/// Isomorphic queries over isomorphic instances agree; drifting sizes,
/// distinct counts or degrees diverge.
uint64_t SnapshotSignature(const std::vector<uint64_t>& edge_colors,
                           const StatsSnapshot& snapshot);

}  // namespace planner
}  // namespace coverpack

#endif  // COVERPACK_PLANNER_STATS_H_
