/// \file operators.h
/// \brief Local (single-machine) relational operators.
///
/// These are the building blocks the MPC servers run between communication
/// rounds: selection, projection, semi-join, binary hash join, and a
/// multiway join used to combine co-located fragments at emission time.

#ifndef COVERPACK_RELATION_OPERATORS_H_
#define COVERPACK_RELATION_OPERATORS_H_

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

/// Natural (hash) join of two relations.
Relation HashJoin(const Relation& left, const Relation& right);

/// Natural join of any number of co-located relations, evaluated as a
/// left-deep sequence of hash joins in ascending size order. Intended for
/// emission-time combination of small fragments; not worst-case optimal.
/// The result's schema is the union of the inputs' schemas, also when the
/// join is empty.
Relation MultiwayJoin(const std::vector<const Relation*>& inputs);

/// Adds a constant column `attr = value` to every row (attr must not be in
/// the schema). Used to re-attach a heavy assignment x = a to the results
/// of the residual query Q_x.
Relation AttachConstant(const Relation& input, AttrId attr, Value value);

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

}  // namespace coverpack

#endif  // COVERPACK_RELATION_OPERATORS_H_
