/// \file message_pass.h
/// \brief Bottom-up semiring message passing over a join forest: the
/// join-aggregate of Appendix A.5, written once.
///
/// Every row of every relation carries a weight from a commutative semiring
/// S (relation/semiring.h). Visiting nodes children first, the pass ⊕-sums
/// each child's weights per exact key on the attributes it shares with its
/// parent and ⊗-multiplies each parent row by its key's sum, S::Zero() when
/// no child row agrees. Afterwards a row's weight is the ⊕, over the results
/// of its subtree's join that extend it, of the ⊗ of their rows' starting
/// weights, and RootProduct is the aggregate of the whole join. Its
/// instances: SubtreeWeights and AcyclicJoinCount (counting), the acyclic
/// result digest (ℤ/2^64) and JoinAggregate (any semiring, grouped at a
/// virtual root).

#ifndef COVERPACK_RELATION_MESSAGE_PASS_H_
#define COVERPACK_RELATION_MESSAGE_PASS_H_

#include <cstdint>
#include <vector>

#include "query/hypergraph.h"
#include "query/join_tree.h"
#include "relation/instance.h"
#include "relation/join_index.h"
#include "util/arena.h"

namespace coverpack {

/// weights[e][i] is the weight of row i of relation e.
template <typename S>
using SemiringWeights = std::vector<std::vector<typename S::Weight>>;

/// Folds every child of `node` into the weights of `node`'s rows, one
/// ArenaScope per tree edge. The children's weights must be final.
template <typename S>
void AbsorbChildren(const Hypergraph& query, const JoinTree& tree, const Instance& instance,
                    uint32_t node, SemiringWeights<S>* weights) {
  const Relation& parent_rel = instance[node];
  std::vector<typename S::Weight>& parent_weights = (*weights)[node];
  for (uint32_t child : tree.children(node)) {
    AttrSet shared = query.edge(node).attrs.Intersect(query.edge(child).attrs);
    const Relation& child_rel = instance[child];
    ArenaScope scope;
    Arena* arena = scope.arena();
    uint32_t* parent_cols = arena->AllocateArray<uint32_t>(shared.size());
    uint32_t* child_cols = arena->AllocateArray<uint32_t>(shared.size());
    size_t k = 0;
    for (AttrId a : shared.ToVector()) {
      parent_cols[k] = parent_rel.ColumnOf(a);
      child_cols[k] = child_rel.ColumnOf(a);
      ++k;
    }
    KeyedWeightSums<S> sums(arena);
    sums.Build(child_rel, child_cols, k, (*weights)[child].data());
    const Value* pbase = parent_rel.raw().data();
    const uint32_t pwidth = parent_rel.width();
    for (size_t i = 0; i < parent_rel.size(); ++i) {
      const typename S::Weight factor = sums.Lookup(pbase + i * pwidth, parent_cols);
      parent_weights[i] = S::Mul(parent_weights[i], factor);
    }
  }
}

/// Runs AbsorbChildren on every node, children before parents.
template <typename S>
void MessagePass(const Hypergraph& query, const JoinTree& tree, const Instance& instance,
                 SemiringWeights<S>* weights) {
  const std::vector<uint32_t> top_down = tree.TopDown();
  for (auto it = top_down.rbegin(); it != top_down.rend(); ++it) {
    AbsorbChildren<S>(query, tree, instance, *it, weights);
  }
}

/// The ⊕ of one node's weights.
template <typename S>
typename S::Weight SumOf(const std::vector<typename S::Weight>& weights) {
  typename S::Weight sum = S::Zero();
  for (const typename S::Weight& w : weights) sum = S::Add(sum, w);
  return sum;
}

/// The ⊗ over the roots of each root's SumOf: after MessagePass, the
/// aggregate of the whole join.
template <typename S>
typename S::Weight RootProduct(const JoinTree& tree, const SemiringWeights<S>& weights) {
  typename S::Weight product = S::One();
  for (uint32_t root : tree.Roots()) product = S::Mul(product, SumOf<S>(weights[root]));
  return product;
}

}  // namespace coverpack

#endif  // COVERPACK_RELATION_MESSAGE_PASS_H_
