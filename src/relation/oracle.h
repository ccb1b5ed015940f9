/// \file oracle.h
/// \brief Sequential join evaluation, used as ground truth for the MPC
/// algorithms and for computing instance statistics (subjoin sizes).
///
/// GenericJoin is an attribute-at-a-time worst-case optimal join in the
/// style of [22, 26] (NPRR / Generic Join), run leapfrog-style over each
/// relation sorted once into trie order. On acyclic queries the join-tree
/// message pass (relation/message_pass.h, the join-aggregate of Appendix
/// A.5) answers without materializing the join: its counting instance gives
/// per-row subtree counts (SubtreeWeights), which the output-balanced
/// baseline of [15] ranks root tuples by, and the join size
/// (AcyclicJoinCount); its ℤ/2^64 instance gives AcyclicResultDigest, equal
/// to ResultDigest of GenericJoin's output.

#ifndef COVERPACK_RELATION_ORACLE_H_
#define COVERPACK_RELATION_ORACLE_H_

#include <cstdint>
#include <vector>

#include "query/hypergraph.h"
#include "query/join_tree.h"
#include "relation/instance.h"

namespace coverpack {

/// Evaluates the full natural join of `instance` over `query` sequentially.
/// The result schema is the union of all edge attributes; it holds every
/// distinct result tuple once, in ascending lexicographic order. Each
/// relation's row ids are sorted once, and every attribute level
/// intersects its relations by galloping, so the join is worst-case optimal
/// up to log factors. The test oracle, and the per-cell join of HyperCube.
Relation GenericJoin(const Hypergraph& query, const Instance& instance);

/// Per-row subtree counts over a join forest of an alpha-acyclic query:
/// w[e][i] is the number of results of the join of e's subtree that extend
/// row i of relation e, saturating at UINT64_MAX. The message pass over the
/// counting semiring, starting from all-one weights. A root's weights sum to
/// the join size of its component.
std::vector<std::vector<uint64_t>> SubtreeWeights(const Hypergraph& query, const JoinTree& tree,
                                                  const Instance& instance);

/// Counts join results of the full natural join without materializing them,
/// for *alpha-acyclic* queries: the product over the roots of each root's
/// SubtreeWeights sum, saturating at UINT64_MAX. Runs in
/// O(total input * log) time regardless of output size.
uint64_t AcyclicJoinCount(const Hypergraph& query, const JoinTree& tree,
                          const Instance& instance);

/// The result digest's hash of one attribute value: odd, so products of
/// factors never vanish modulo 2^64.
uint64_t ValueFactor(AttrId attr, Value value);

/// Order-independent digest of a set of join results: the wrapping sum over
/// rows of the product of the row's value factors. Bit-identical to the
/// RowDigest that bench/perf checks its results with.
uint64_t ResultDigest(const Relation& relation);

/// ResultDigest(GenericJoin(query, instance)) for an *alpha-acyclic* query,
/// without materializing the join: the message pass over ℤ/2^64, where each
/// row starts as the product of the value factors of the attributes its
/// relation is the topmost holder of in `tree`.
uint64_t AcyclicResultDigest(const Hypergraph& query, const JoinTree& tree,
                             const Instance& instance);

/// Counts join results of an arbitrary query: uses AcyclicJoinCount when a
/// join tree exists, otherwise falls back to GenericJoin and counts rows.
uint64_t JoinCount(const Hypergraph& query, const Instance& instance);

/// The subjoin size |subjoin(T, R, S)| of Definition 3.1: the product over
/// the maximally tree-connected components S_i of T[S] of the join size of
/// the relations in S_i. Saturates at UINT64_MAX.
uint64_t SubjoinSize(const Hypergraph& query, const JoinTree& tree, const Instance& instance,
                     EdgeSet s);

/// Removes all dangling tuples of an acyclic query by a full semi-join
/// reduction over the join tree (Yannakakis phase one): leaf-to-root then
/// root-to-leaf passes. Returns the reduced instance.
Instance SemiJoinReduce(const Hypergraph& query, const JoinTree& tree, const Instance& instance);

}  // namespace coverpack

#endif  // COVERPACK_RELATION_ORACLE_H_
