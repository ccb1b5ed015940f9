/// \file aggregate.h
/// \brief Join-aggregate queries over annotated relations (Appendix A.5).
///
/// Every tuple carries an annotation from a commutative semiring
/// (relation/semiring.h). A join result's annotation is the ⊗ of its
/// constituent tuples'; the query groups results by the output attributes
/// y and ⊕-combines each group's annotations. COUNT(*) GROUP BY y is the
/// counting instance with all-1 annotations — what Section 3.2's subjoin
/// statistics |subjoin(T,R,S)| count.
///
/// Free-connex queries (the class evaluable in O(N) + output time) are
/// recognized with the classical criterion: Q with output y is free-connex
/// iff Q is alpha-acyclic and so is Q plus a virtual hyperedge covering
/// exactly y. Evaluation runs the join-tree message pass
/// (relation/message_pass.h), the same one behind SubtreeWeights and
/// AcyclicResultDigest, on a join tree of the extended query rooted at the
/// virtual edge, and groups at that root. The templates are instantiated
/// for CountingSemiring and TropicalSemiring.

#ifndef COVERPACK_RELATION_AGGREGATE_H_
#define COVERPACK_RELATION_AGGREGATE_H_

#include <cstdint>
#include <vector>

#include "query/hypergraph.h"
#include "relation/instance.h"
#include "relation/semiring.h"

namespace coverpack {

/// Per-relation annotations: annotations[e][i] annotates row i of relation
/// e. A relation without a vector (empty, or past the end) annotates every
/// row with the semiring's One(); a non-empty vector must hold one entry per
/// row, and every aggregate aborts otherwise.
using Annotations = std::vector<std::vector<uint64_t>>;

/// All-1 annotations for an instance (the COUNT query).
Annotations UnitAnnotations(const Instance& instance);

/// Aggregated output: one row of `keys` (schema = the output attributes)
/// per group, with its combined annotation in `values`. A group exists when
/// some join result has its key, even if its value is the semiring's Zero().
struct AggregateResult {
  Relation keys;
  std::vector<uint64_t> values;
};

/// True iff the query with output attributes y is free-connex acyclic:
/// Q is alpha-acyclic, and so is Q plus a virtual edge over y. (An edge
/// over all attributes makes any hypergraph alpha-acyclic, so the first
/// condition is what rejects a cyclic Q with y = all attributes. For that
/// y, and for y = empty, the test is plain alpha-acyclicity of Q.)
bool IsFreeConnex(const Hypergraph& query, AttrSet output_attrs);

/// Evaluates the join-aggregate query by message passing over a join tree
/// of the extended hypergraph. Requires IsFreeConnex(query, output_attrs);
/// aborts otherwise. With y = empty the one group is the empty tuple, present
/// iff the join is non-empty.
template <typename S>
AggregateResult JoinAggregate(const Hypergraph& query, const Instance& instance,
                              const Annotations& annotations, AttrSet output_attrs, S semiring);

/// Scalar aggregate of an alpha-acyclic query: e.g. |Q(R)| under the
/// counting semiring; S::Zero() for an empty join.
template <typename S>
uint64_t JoinAggregateScalar(const Hypergraph& query, const Instance& instance,
                             const Annotations& annotations, S semiring);

/// Reference implementation: materialize the join, group, combine.
/// Exponential-size safe only for test instances.
template <typename S>
AggregateResult JoinAggregateBruteForce(const Hypergraph& query, const Instance& instance,
                                        const Annotations& annotations, AttrSet output_attrs,
                                        S semiring);

}  // namespace coverpack

#endif  // COVERPACK_RELATION_AGGREGATE_H_
