/// \file oracle.h
/// \brief Sequential join evaluation, used as ground truth for the MPC
/// algorithms and for computing instance statistics (subjoin sizes).
///
/// GenericJoin is an attribute-at-a-time worst-case optimal join in the
/// style of [22, 26] (NPRR / Generic Join), run leapfrog-style over each
/// relation sorted once into trie order; AcyclicJoinCount counts join
/// results of an acyclic query in near-linear time by message passing over
/// a join tree — the COUNT(*) join-aggregate query of Appendix A.5.

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

/// Counts join results of the full natural join without materializing them,
/// for *alpha-acyclic* queries, by bottom-up counting over the join tree.
/// Runs in O(total input * log) time regardless of output size.
uint64_t AcyclicJoinCount(const Hypergraph& query, const JoinTree& tree,
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
