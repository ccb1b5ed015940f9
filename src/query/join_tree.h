/// \file join_tree.h
/// \brief Join trees (and forests) of alpha-acyclic queries.
///
/// A join tree has one node per relation such that, for every attribute,
/// the nodes containing it form a connected subtree (Section 1.4). We build
/// one with Kruskal's algorithm on the intersection-weight graph — a
/// maximal-weight spanning forest of that graph is a join tree iff the
/// query is alpha-acyclic (Bernstein–Goodman) — and then validate the
/// running-intersection property, so Build doubles as an acyclicity test.

#ifndef COVERPACK_QUERY_JOIN_TREE_H_
#define COVERPACK_QUERY_JOIN_TREE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "query/hypergraph.h"

namespace coverpack {

/// A rooted forest over the relations of an acyclic query. Node ids equal
/// the EdgeIds of the Hypergraph the tree was built from.
class JoinTree {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  /// Builds a join forest for the query, or nullopt if the query is cyclic.
  static std::optional<JoinTree> Build(const Hypergraph& query);

  uint32_t num_nodes() const { return static_cast<uint32_t>(parent_.size()); }

  uint32_t parent(uint32_t node) const { return parent_[node]; }
  const std::vector<uint32_t>& children(uint32_t node) const { return children_[node]; }
  bool IsRoot(uint32_t node) const { return parent_[node] == kNoParent; }
  bool IsLeaf(uint32_t node) const { return children_[node].empty(); }

  /// All root nodes (one per connected subtree).
  std::vector<uint32_t> Roots() const;

  /// All leaf nodes. A single-node tree counts as a leaf.
  std::vector<uint32_t> Leaves() const;

  /// Every node, parents before children: the roots in Roots() order, each
  /// walked depth-first by a stack that pushes a node's children in order.
  /// Reversed, it is a bottom-up order (children before parents).
  std::vector<uint32_t> TopDown() const;

  /// Nodes of each connected subtree, as edge sets.
  std::vector<EdgeSet> Components() const;

  /// T[S]: the maximally connected components of the node subset S *on the
  /// tree* (Definition 3.1's T[S], distinct from hypergraph connectivity).
  std::vector<EdgeSet> TreeComponents(EdgeSet s) const;

  /// The unique tree path between two nodes of the same component
  /// (inclusive of both endpoints). Aborts if they are in different
  /// components.
  std::vector<uint32_t> PathBetween(uint32_t a, uint32_t b) const;

  /// Re-roots the component containing `node` at `node`.
  void RerootAt(uint32_t node);

  /// Pretty tree rendering for debugging/benches.
  std::string ToString(const Hypergraph& query) const;

 private:
  JoinTree() = default;

  std::vector<uint32_t> parent_;
  std::vector<std::vector<uint32_t>> children_;
};

}  // namespace coverpack

#endif  // COVERPACK_QUERY_JOIN_TREE_H_
