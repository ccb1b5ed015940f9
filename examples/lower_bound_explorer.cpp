/// \file lower_bound_explorer.cpp
/// \brief Interactive tour of the Theorem 6 lower bound.
///
/// Builds the probabilistic box-join hard instance, then walks the proof:
/// the output hits the AGM bound, yet the best Cartesian load shape a
/// server can pick yields only ~2L^3/N results, so p servers force
/// L >= N / (2p)^(1/3) — beating the cover-based bound N / p^(1/2).
///
///   $ ./lower_bound_explorer [N] [p]

#include <cmath>
#include <cstdlib>
#include <iostream>

#include "lowerbound/emit_capacity.h"
#include "lowerbound/hard_instance.h"
#include "query/catalog.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace coverpack;
  using namespace coverpack::lowerbound;

  uint64_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 32768;
  uint32_t p = argc > 2 ? static_cast<uint32_t>(std::strtoul(argv[2], nullptr, 10)) : 512;

  Hypergraph box = catalog::BoxJoin();
  PackingProvability witness = BoxJoinWitness(box);
  std::cout << "query: " << box.ToString() << "\n";
  std::cout << "rho* = " << witness.rho_star << " (cover {R1,R2}), tau* = "
            << witness.tau_star << " (packing {R3,R4,R5})\n\n";

  HardInstance hard = BoxJoinHardInstance(box, n, /*seed=*/99);
  n = hard.n;
  uint64_t r2 = hard.instance[*box.FindEdge("R2")].size();
  std::cout << "hard instance: N = " << n << "; R1,R3,R4,R5 Cartesian (" << n
            << " tuples each); R2 sampled at rate 1/N (" << r2 << " tuples)\n";
  std::cout << "output = |R1| x |R2| = " << n * r2 << "  (AGM bound N^2 = " << n * n
            << ")\n\n";

  uint64_t load = static_cast<uint64_t>(static_cast<double>(n) /
                                        std::pow(2.0 * static_cast<double>(p), 1.0 / 3.0));
  std::cout << "suppose every server is limited to L = N/(2p)^(1/3) = " << load
            << " tuples per relation.\n";
  EmitCapacityResult cap = SearchEmitCapacity(box, hard, witness, load, 200);
  std::cout << "searched " << cap.shapes_searched << " Cartesian load shapes ("
            << cap.shapes_evaluated_exactly << " evaluated exactly):\n";
  std::cout << "  best shape emits J(L) = " << cap.measured << " results\n";
  std::cout << "  Theorem 6 cap 2L^3/N   = " << FormatDouble(cap.predicted_cap, 0) << "  ["
            << (static_cast<double>(cap.measured) <= cap.predicted_cap ? "HOLDS" : "VIOLATED")
            << "]\n";
  if (!cap.best_shape.empty()) {
    std::cout << "  best shape loads per attribute (A,B,C,D,E,F): ";
    for (size_t i = 0; i < cap.best_shape.size(); ++i) {
      std::cout << (i ? " x " : "") << cap.best_shape[i];
    }
    std::cout << "\n";
  }

  // p servers at load L emit at most p * J(L) results; only when that falls
  // short of OUT must the load exceed L.
  const double total_emittable = static_cast<double>(p) * static_cast<double>(cap.measured);
  const double out = static_cast<double>(n * r2);
  std::cout << "\ncounting argument: p * J(L) = " << FormatDouble(total_emittable, 0);
  if (total_emittable < out) {
    std::cout << " < OUT = " << n * r2 << " -> L must exceed " << load << ".\n";
  } else {
    std::cout << " >= OUT = " << n * r2 << " -> no bound follows at L = " << load << ".\n";
  }

  TablePrinter table({"p", "new bound N/(2p)^(1/3)", "AGM bound N/p^(1/2)", "factor"});
  for (uint32_t pp : {64u, 512u, 4096u, 32768u}) {
    double new_bound = CountingArgumentLoadBound(n, pp, witness.tau_star);
    double agm = static_cast<double>(n) / std::sqrt(static_cast<double>(pp));
    table.AddRow({std::to_string(pp), FormatDouble(new_bound, 1), FormatDouble(agm, 1),
                  FormatDouble(new_bound / agm, 2)});
  }
  table.Print(std::cout);
  std::cout << "packing, not cover, governs the multi-round lower bound here.\n";
  return 0;
}
