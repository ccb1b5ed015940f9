/// \file thm6_box_lower.cc
/// \brief Validates Theorem 6: the box-join lower bound Omega(N / p^(1/3)).
///
/// Three steps, mirroring the proof:
///  1. construct the probabilistic hard instance (output ~ N^2, the AGM
///     bound);
///  2. search all Cartesian load shapes for the per-server emit capacity
///     J(L) and verify it stays under 2 L^3 / N (concentration), while the
///     construction admits shapes achieving ~ L^3 / N (tightness);
///  3. apply the counting argument p * J(L) >= N^2 to recover
///     L >= N / (2p)^(1/3) — strictly stronger than the AGM-based
///     Omega(N / p^(1/2)) since tau* = 3 > 2 = rho*.

#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "experiments/runners.h"
#include "lowerbound/emit_capacity.h"
#include "lowerbound/hard_instance.h"
#include "query/catalog.h"
#include "relation/oracle.h"

namespace coverpack {
namespace bench {

telemetry::RunReport RunThm6BoxLower(const Experiment& e) {
  telemetry::RunReport report = MakeReport(e);
  Banner(e.title, e.claim);

  Hypergraph box = catalog::BoxJoin();
  PackingProvability witness = lowerbound::BoxJoinWitness(box);
  uint64_t n = 32768;
  const uint64_t seed = ExperimentSeed(2021);
  lowerbound::HardInstance hard = lowerbound::BoxJoinHardInstance(box, n, seed);
  n = hard.n;
  report.AddParam("N", n);
  report.AddParam("seed", seed);

  // Output = |R1| * |R2| (every (a,b,c) joins every sampled (d,e,f);
  // verified by materialization at small N in the test suite).
  uint64_t output = hard.instance[*box.FindEdge("R1")].size() *
                    hard.instance[*box.FindEdge("R2")].size();
  std::cout << "hard instance: N = " << n << ", |R2| = "
            << hard.instance[*box.FindEdge("R2")].size() << " (expected ~N), output = "
            << output << " (AGM bound N^2 = " << n * n << ")\n\n";

  // Step 2: emit capacity across loads.
  TablePrinter cap_table({"L", "J(L) measured", "cap 2L^3/N", "measured/cap",
                          "shapes searched"});
  bool cap_holds = true;
  bool tight = true;
  for (uint32_t p : {8u, 64u, 512u, 4096u}) {
    ScopedTimer timer(&report.metrics, "emit_capacity_search");
    uint64_t load = static_cast<uint64_t>(
        static_cast<double>(n) / std::pow(static_cast<double>(p), 1.0 / 3.0));
    lowerbound::EmitCapacityResult r =
        lowerbound::SearchEmitCapacity(box, hard, witness, load, /*exact_top_k=*/150);
    report.metrics.AddCounter("shapes_searched", r.shapes_searched);
    double ratio = static_cast<double>(r.measured) / r.predicted_cap;
    cap_table.AddRow({std::to_string(load), std::to_string(r.measured),
                      FormatDouble(r.predicted_cap, 0), FormatDouble(ratio, 3),
                      std::to_string(r.shapes_searched)});
    if (ratio > 1.0) cap_holds = false;
    if (ratio < 1.0 / 32.0) tight = false;
  }
  cap_table.Print(std::cout);
  std::cout << "J(L) <= 2L^3/N on every Cartesian shape: " << (cap_holds ? "yes" : "NO")
            << "; construction achieves a constant fraction: " << (tight ? "yes" : "NO")
            << "\n\n";

  // Step 3: counting argument.
  TablePrinter bound_table({"p", "new bound N/(2p)^(1/3)", "AGM-based N/p^(1/2)",
                            "improvement factor"});
  bool stronger = true;
  for (uint32_t p : {64u, 512u, 4096u, 32768u}) {
    double new_bound = lowerbound::CountingArgumentLoadBound(n, p, witness.tau_star);
    double agm_bound = static_cast<double>(n) / std::sqrt(static_cast<double>(p));
    bound_table.AddRow({std::to_string(p), FormatDouble(new_bound, 1),
                        FormatDouble(agm_bound, 1), FormatDouble(new_bound / agm_bound, 2)});
    if (new_bound <= agm_bound) stronger = false;
  }
  bound_table.Print(std::cout);
  std::cout << "the tau*-based bound strictly dominates the rho*-based bound for p >= 64: "
            << (stronger ? "yes" : "NO") << "\n";

  bool ok = cap_holds && tight && stronger;
  FinishReport(report, ok);
  return report;
}

}  // namespace bench
}  // namespace coverpack
