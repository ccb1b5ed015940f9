/// \file covers.h
/// \brief Query-dependent LP quantities: rho*, tau*, psi*, vertex covers.
///
/// These are the three numbers the paper's title is about: the optimal
/// fractional edge covering number rho* governs the multi-round upper bound
/// (Theorem 5), the optimal fractional edge packing number tau* governs the
/// new lower bound (Theorems 6/7), and the quasi-packing number psi* governs
/// the one-round bound of prior work.

#ifndef COVERPACK_LP_COVERS_H_
#define COVERPACK_LP_COVERS_H_

#include <vector>

#include "query/hypergraph.h"
#include "util/rational.h"

namespace coverpack {

/// A fractional weighting of the edges of a query.
struct EdgeWeighting {
  Rational total;                 ///< Sum of the weights (the "number").
  std::vector<Rational> weights;  ///< One weight per EdgeId.
};

/// A fractional weighting of the vertices (attributes) of a query.
/// weights are indexed by AttrId over the *full* attribute table; ids not
/// occurring in any edge get weight zero.
struct VertexWeighting {
  Rational total;
  std::vector<Rational> weights;
};

/// Optimal fractional edge covering: minimize sum f(e) with
/// sum_{e : v in e} f(e) >= 1 for every attribute v. (rho*)
EdgeWeighting FractionalEdgeCover(const Hypergraph& query);

/// Optimal fractional edge packing: maximize sum f(e) with
/// sum_{e : v in e} f(e) <= 1 for every attribute v. (tau*)
EdgeWeighting FractionalEdgePacking(const Hypergraph& query);

/// Optimal fractional edge quasi-packing psi* = max over all attribute
/// subsets x of tau*(Q_x) (footnote 2 of the paper), computed without an
/// LP. Let U = V - x be the attributes Q_x keeps; an edge e is private to
/// v in U when e & U = {v}. Then
///   psi* = max { |U| : U nonempty, every v in U has a private edge },
/// always an integer. Proof: if every v in U has a private edge, one unit
/// per v on a private edge packs |U|, and any packing has sum f(e) <=
/// sum f(e)|e & U| = sum over v of its load <= |U|, so tau*(Q_x) = |U|.
/// If some v has none, dropping v keeps every residual edge nonempty and
/// removes one constraint, so tau* cannot fall. One bitmask pass per
/// subset: O(2^|V| |E|) word operations — queries have constant size.
Rational EdgeQuasiPackingNumber(const Hypergraph& query);

/// Optimal fractional vertex covering: minimize sum x_v with
/// sum_{v in e} x_v >= 1 for every edge e. By LP duality its value
/// equals tau*.
VertexWeighting FractionalVertexCover(const Hypergraph& query);

/// Shorthand accessors.
Rational RhoStar(const Hypergraph& query);
Rational TauStar(const Hypergraph& query);

/// True if every weight has denominator 1.
bool IsIntegral(const std::vector<Rational>& weights);

/// True if every weight has denominator 1 or 2.
bool IsHalfIntegral(const std::vector<Rational>& weights);

/// The AGM exponent of a subset of attributes: the optimal fractional edge
/// cover number of the query restricted to covering only `attrs`
/// (minimize sum f(e), sum_{e : v in e} f(e) >= 1 for v in attrs).
Rational RhoStarOfAttrs(const Hypergraph& query, AttrSet attrs);

}  // namespace coverpack

#endif  // COVERPACK_LP_COVERS_H_
