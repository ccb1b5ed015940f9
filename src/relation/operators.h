/// \file operators.h
/// \brief Local (single-machine) relational operators.
///
/// These are the building blocks the MPC servers run between communication
/// rounds: selection, projection, semi-join, binary hash join, and a
/// multiway join used to combine co-located fragments at emission time.

#ifndef COVERPACK_RELATION_OPERATORS_H_
#define COVERPACK_RELATION_OPERATORS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "query/hypergraph.h"
#include "relation/instance.h"
#include "relation/relation.h"

namespace coverpack {

/// sigma_{attr = value}(input).
Relation Select(const Relation& input, AttrId attr, Value value);

/// sigma_{attr in values}(input); `values` should be sorted (binary search).
Relation SelectIn(const Relation& input, AttrId attr, const std::vector<Value>& sorted_values);

/// sigma_{attr not in values}(input); `values` should be sorted. The
/// complement selection of the skew-split pipelines (rows whose value is
/// not heavy), previously open-coded with per-row appends.
Relation SelectNotIn(const Relation& input, AttrId attr,
                     const std::vector<Value>& sorted_values);

/// pi_{attrs}(input) with duplicate elimination (set semantics).
Relation Project(const Relation& input, AttrSet attrs);

/// Distinct values of a single attribute.
std::vector<Value> DistinctValues(const Relation& input, AttrId attr);

/// Semi-join: tuples of `left` that agree with at least one tuple of
/// `right` on their shared attributes. If the schemas are disjoint,
/// returns `left` when `right` is nonempty and empty otherwise.
Relation SemiJoin(const Relation& left, const Relation& right);

/// Left rows per probe shard of a hash join. Fixed (never derived from the
/// thread count) so the shards, and therefore where each shard writes, are
/// the same at any parallelism level.
inline constexpr size_t kJoinProbeGrain = 1024;

/// Natural (hash) join of two relations. Probes an index of `right` with
/// kJoinProbeGrain shards of `left` on the global pool, counting each
/// shard's matches; appends their sum once; then probes again and writes
/// each shard's rows at the sum of the earlier shards' counts. Row order is
/// ascending left row, then ascending right row within a key group, so the
/// output is byte-identical at any thread count.
Relation HashJoin(const Relation& left, const Relation& right);

/// The match step of a multiway join, which lets a caller size one output
/// for many joins and write each straight into its slice. Construction
/// folds every join but the last, a left-deep sequence of HashJoins in
/// ascending input size order, and counts the last join's matches per
/// probe shard, as HashJoin does, without storing them. WriteInto probes
/// again and writes each shard's rows at its prefix offset, with no
/// recount, in HashJoin's order at any thread count. Count and write each
/// open their own arena scope, so they may run on different threads.
/// Borrows the inputs: they must outlive the step and stay unchanged.
class PendingJoin {
 public:
  explicit PendingJoin(const std::vector<const Relation*>& inputs);

  /// The union of the inputs' schemas, also when the join is empty.
  AttrSet attrs() const { return attrs_; }

  /// Rows of the join.
  size_t size() const { return rows_; }

  /// Writes the join's size() * attrs().size() values to `dst` and returns
  /// the number of rows written.
  size_t WriteInto(Value* dst) const;

 private:
  /// Left side of the last join: the fold, or the smallest input when
  /// there are only two.
  const Relation& left() const { return fold_ ? folded_ : *first_; }

  AttrSet attrs_;
  const Relation* first_ = nullptr;  // the smallest input
  const Relation* last_ = nullptr;   // the largest input; null for one input
  Relation folded_;                  // every join but the last (3+ inputs)
  bool fold_ = false;
  std::vector<size_t> shard_rows_;   // the last join's matches per probe shard
  size_t rows_ = 0;
};

/// Natural join of any number of co-located relations: a PendingJoin
/// written into one fresh relation. Intended for emission-time combination
/// of small fragments; not worst-case optimal. The result's schema is the
/// union of the inputs' schemas, also when the join is empty.
Relation MultiwayJoin(const std::vector<const Relation*>& inputs);

/// Adds a constant column `attr = value` to every row (attr must not be in
/// the schema). Used to re-attach a heavy assignment x = a to the results
/// of the residual query Q_x.
Relation AttachConstant(const Relation& input, AttrId attr, Value value);

/// AttachConstant written to `dst`: input.size() rows of input.width() + 1
/// values.
void AttachConstantInto(const Relation& input, AttrId attr, Value value, Value* dst);

/// Drops one column from the schema without deduplication (rows stay
/// distinct when the dropped attribute was constant across the relation).
Relation DropColumn(const Relation& input, AttrId attr);

/// Q_x[a], the residual instance of a heavy value x = a: the instance of
/// `residual` (= query.Residual({x})) in which every relation holding x keeps
/// its rows with x = a, without column x, and every other relation is copied.
/// Returns nullopt when some relation holding x has no row with x = a, a
/// relation on x alone (which the residual query drops) included: then no
/// join result has x = a.
std::optional<Instance> ResidualInstance(const Hypergraph& query, const Instance& instance,
                                         const Hypergraph& residual, AttrId x, Value a);

/// Degree of each value of `attr`: pairs (value, count) sorted by value.
std::vector<std::pair<Value, uint64_t>> DegreeHistogram(const Relation& input, AttrId attr);

/// Gathers column `col` of `relation` into `buffer` (relation.size() values,
/// owned by the caller), sorts it unless it is already ascending, as a
/// sorted relation's first column is, and calls visit(value, run_length)
/// once per run of equal values, in ascending value order.
template <typename Visit>
void ForEachColumnRun(const Relation& relation, uint32_t col, Value* buffer,
                      const Visit& visit) {
  const size_t n = relation.size();
  if (n == 0) return;
  const uint32_t width = relation.width();
  const Value* src = relation.raw().data() + col;
  for (size_t i = 0; i < n; ++i) buffer[i] = src[i * width];
  if (!std::is_sorted(buffer, buffer + n)) std::sort(buffer, buffer + n);
  for (size_t i = 0; i < n;) {
    size_t run = i + 1;
    while (run < n && buffer[run] == buffer[i]) ++run;
    visit(buffer[i], run - i);
    i = run;
  }
}

}  // namespace coverpack

#endif  // COVERPACK_RELATION_OPERATORS_H_
