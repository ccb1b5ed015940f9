/// \file catalog.h
/// \brief Named query families used throughout the paper and the benches.
///
/// Every query the paper mentions (Figures 1-7, examples in Sections 1-5)
/// has a constructor here so tests and benchmarks can refer to them by name.

#ifndef COVERPACK_QUERY_CATALOG_H_
#define COVERPACK_QUERY_CATALOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/hypergraph.h"

namespace coverpack {
namespace catalog {

/// Path join of k binary relations: R1(X0,X1), R2(X1,X2), ..., Rk(Xk-1,Xk).
/// rho* = ceil(k/2); the psi*/rho* gap grows with k (Section 1.4).
Hypergraph Path(uint32_t k);

/// Star join: R1(X0,X1), R2(X0,X2), ..., Rk(X0,Xk). r-hierarchical.
Hypergraph Star(uint32_t k);

/// Star-dual join of Section 1.3: R0(X1..Xk), R1(X1), ..., Rk(Xk).
/// rho* = 1, psi* = k; the 1-round vs multi-round gap is p^((k-1)/k).
Hypergraph StarDual(uint32_t k);

/// Cycle join of length k: R1(X1,X2), ..., Rk(Xk,X1). Cyclic for k >= 3;
/// degree-two. Even k has integral cover/packing, odd k half-integral.
Hypergraph Cycle(uint32_t k);

/// Loomis-Whitney join on n attributes: n relations, each omitting one
/// attribute. rho* = tau* = n/(n-1).
Hypergraph LoomisWhitney(uint32_t n);

/// Clique (tetrahedron-style) join: one binary relation per pair of the k
/// attributes. Triangle is Clique(3) == Cycle(3).
Hypergraph Clique(uint32_t k);

/// Triangle join R1(A,B), R2(B,C), R3(C,A).
Hypergraph Triangle();

/// The box join Q_box of Figure 2 / Theorem 6:
///   R1(A,B,C), R2(D,E,F), R3(A,D), R4(B,E), R5(C,F).
/// rho* = 2 {R1,R2}, tau* = 3 {R3,R4,R5}; degree-two, no odd cycle;
/// edge-packing-provable with x_A=x_B=x_C=1/3, x_D=x_E=x_F=2/3.
Hypergraph BoxJoin();

/// The acyclic 8-relation query of Figure 4:
///   e0(A,B,C,H), e1(A,B,D), e2(B,C,E), e3(A,C,F), e4(A,B,H,J),
///   e5(A,H,I), e6(A,I,K), e7(A,I,G).
Hypergraph Figure4Query();

/// Section 1.3's two-round example: R1(A), R2(A,B), R3(B).
/// rho* = 1 {R2}, tau* = psi* = 2 {R1,R3}.
Hypergraph SemiJoinExample();

/// Line-3 join R1(A,B), R2(B,C), R3(C,D): acyclic but not r-hierarchical.
Hypergraph Line3();

/// The alpha-acyclic but not berge-acyclic example of Section 1.3:
///   R0(A,B,C), R1(A,B,D), R2(B,C,E), R3(A,C,F).
Hypergraph AlphaNotBerge();

/// A larger edge-packing-provable degree-two join in the style of Figure 7:
/// two ternary "hub" relations matched by three binary relations plus a
/// pendant 4-cycle. Constructed so every vertex has degree exactly two and
/// there is no odd cycle.
Hypergraph PackingProvableSixEdges();

/// A named catalog entry for table-driven tests and benches.
struct NamedQuery {
  std::string name;
  Hypergraph query;
};

/// The standard roster used by classification benches (Figure 1 / Figure 3).
std::vector<NamedQuery> StandardRoster();

}  // namespace catalog
}  // namespace coverpack

#endif  // COVERPACK_QUERY_CATALOG_H_
