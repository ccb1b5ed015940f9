/// \file query_analyzer.cpp
/// \brief Analyze any join query: structure, LP numbers, join tree, twig
/// decomposition, and predicted MPC complexity.
///
///   $ ./query_analyzer "R1(A,B,C), R2(D,E,F), R3(A,D), R4(B,E), R5(C,F)"
///   $ ./query_analyzer                       # analyzes a default roster
///
/// A malformed query prints the parser's message and exits 2.
///
/// This is the "paper calculator": it answers, for a query of your choice,
/// every question Table 1 asks — what the one-round, multi-round, and
/// lower-bound exponents are, and which theorem governs it.

#include <cmath>
#include <iostream>
#include <optional>
#include <string>

#include "lp/covers.h"
#include "lp/packing_provable.h"
#include "query/catalog.h"
#include "query/decomposition.h"
#include "query/join_tree.h"
#include "query/parser.h"
#include "query/properties.h"

namespace {

using namespace coverpack;

void Analyze(const Hypergraph& query) {
  std::cout << "=====================================================\n";
  std::cout << "query: " << query.ToString() << "\n";
  std::cout << "class: " << ClassificationString(query) << "\n";

  Rational rho = RhoStar(query);
  Rational tau = TauStar(query);
  Rational psi = EdgeQuasiPackingNumber(query);
  std::cout << "rho* = " << rho << "  tau* = " << tau << "  psi* = " << psi << "\n";

  std::cout << "one-round worst-case load:   ~N / p^(" << tau.Inverse() << ") skew-free, "
            << "~N / p^(" << psi.Inverse() << ") general [19]\n";

  if (IsAlphaAcyclic(query)) {
    std::cout << "multi-round upper bound:     N / p^(" << rho.Inverse()
              << ") in O(1) rounds [Theorem 5]\n";
    auto tree = JoinTree::Build(query);
    std::cout << "join tree:\n" << tree->ToString(query);
    Hypergraph reduced = Reduce(query);
    auto rtree = JoinTree::Build(reduced);
    EdgeSet cover = MinimumIntegralEdgeCover(reduced).edges;
    std::cout << "integral optimal edge cover (size " << cover.size() << "): {";
    bool first = true;
    for (EdgeId e : cover.ToVector()) {
      std::cout << (first ? "" : ", ") << reduced.edge(e).name;
      first = false;
    }
    std::cout << "}\ntwig decomposition:\n";
    for (EdgeSet component : rtree->Components()) {
      std::cout << DecompositionToString(reduced, DecomposeTwigs(*rtree, component, cover));
    }
    std::cout << "|S(E)| family max set size: " << MaxSFamilySetSize(query)
              << " (= rho*)\n";
  } else {
    PackingProvability witness = AnalyzePackingProvable(query);
    if (witness.provable) {
      std::cout << "multi-round LOWER bound:     N / p^(" << tau.Inverse()
                << ") [Theorem 7: edge-packing-provable]\n";
      if (tau > rho) {
        std::cout << "  -> strictly above the AGM-based N / p^(" << rho.Inverse()
                  << "): cover is NOT the right exponent here (the paper's headline)\n";
      }
    } else {
      std::cout << "multi-round lower bound:     N / p^(" << rho.Inverse()
                << ") (AGM-based; Definition 5.4 not satisfied: " << witness.reason << ")\n";
    }
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::string error;
    std::optional<coverpack::Hypergraph> query = coverpack::ParseQuery(argv[1], &error);
    if (!query.has_value()) {
      std::cerr << "query_analyzer: " << error << "\n";
      return 2;
    }
    Analyze(*query);
    return 0;
  }
  for (const auto& entry : coverpack::catalog::StandardRoster()) {
    Analyze(entry.query);
  }
  return 0;
}
