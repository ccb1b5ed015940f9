/// \file query_shape.h
/// \brief Structure-only canonicalization of join queries for plan caching.
///
/// The expensive per-query planning artifacts (rho*, tau*, psi*, join
/// trees, load thresholds) depend only on the *shape* of the hypergraph —
/// never on attribute or relation names, and never on the order Builder
/// calls happened in. The PlanCache therefore keys its entries by a
/// canonical shape hash: isomorphic hypergraphs (same structure under any
/// renaming/permutation of attributes and relations) canonicalize to the
/// same hash and the same canonical form string.
///
/// Canonicalization runs Weisfeiler-Leman color refinement on the
/// attribute/edge incidence structure, strengthened by a single-vertex
/// individualization sweep whenever refinement alone leaves symmetric
/// attributes (the sweep separates WL-equivalent non-isomorphic pairs such
/// as one 6-cycle vs. two disjoint triangles). The resulting colors are
/// invariant under isomorphism by construction; the canonical form string
/// renders the colored structure and doubles as the cache's collision
/// guard — two queries are treated as shape-equal only when their forms
/// compare equal, never on the hash alone.

#ifndef COVERPACK_SERVICE_QUERY_SHAPE_H_
#define COVERPACK_SERVICE_QUERY_SHAPE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/hypergraph.h"
#include "relation/instance.h"

namespace coverpack {
namespace service {

/// The canonical (isomorphism-invariant) identity of a query's shape.
struct ShapeCanon {
  uint64_t hash = 0;             ///< shape hash; equal for isomorphic queries
  std::string canonical_form;    ///< rendered colored structure (collision guard)
  std::vector<uint64_t> edge_colors;  ///< final refinement color per EdgeId
  uint32_t num_attrs = 0;        ///< attributes occurring in at least one edge
  uint32_t num_edges = 0;
};

/// Canonicalizes the query's shape. Deterministic, and invariant under any
/// permutation of attribute names, relation names, or insertion order.
ShapeCanon CanonicalizeShape(const Hypergraph& query);

/// Shorthand: CanonicalizeShape(query).hash.
uint64_t QueryShapeHash(const Hypergraph& query);

/// True when every edge color class has one uniform relation size. Only
/// then is a (shape, stats signature) key a *proof* that the planner's
/// load threshold transfers exactly: with non-uniform sizes inside a
/// symmetric class, two instances can share a signature yet assign sizes
/// to structurally distinct positions, so the service bypasses the cache.
bool SizesUniformPerColorClass(const ShapeCanon& canon, const Instance& instance);

}  // namespace service
}  // namespace coverpack

#endif  // COVERPACK_SERVICE_QUERY_SHAPE_H_
