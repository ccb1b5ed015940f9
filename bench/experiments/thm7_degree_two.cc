/// \file thm7_degree_two.cc
/// \brief Validates Theorem 7: the edge-packing lower bound
/// Omega(N / p^(1/tau*)) for every edge-packing-provable degree-two join.
///
/// For each example join we build the witness-driven hard instance, search
/// the per-server emit capacity J(L), verify J(L) <= 2 L^{tau*} N^{rho*-tau*}
/// across seeds (the Chernoff concentration of Step 2), and report the
/// resulting load bound next to the AGM-based one.

#include <cmath>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "experiments/runners.h"
#include "lowerbound/emit_capacity.h"
#include "lowerbound/hard_instance.h"
#include "query/catalog.h"

namespace coverpack {
namespace bench {

namespace {

struct DegreeTwoExample {
  std::string name;
  Hypergraph query;
  PackingProvability witness;
  uint64_t n;
};

}  // namespace

telemetry::RunReport RunThm7DegreeTwo(const Experiment& e) {
  telemetry::RunReport report = MakeReport(e);
  Banner(e.title, e.claim);

  std::vector<DegreeTwoExample> examples;
  {
    Hypergraph box = catalog::BoxJoin();
    examples.push_back({"box_join", box, lowerbound::BoxJoinWitness(box), 32768});
  }
  {
    Hypergraph rotated = catalog::PackingProvableSixEdges();
    // Same witness shape as the box join (the bridges are rotated).
    VertexWeighting x;
    x.weights.assign(rotated.num_attrs(), Rational(0));
    for (const char* name : {"A", "B", "C"}) {
      x.weights[*rotated.FindAttribute(name)] = Rational(1, 3);
    }
    for (const char* name : {"D", "E", "F"}) {
      x.weights[*rotated.FindAttribute(name)] = Rational(2, 3);
    }
    x.total = Rational(3);
    PackingProvability witness = AnalyzeWithCover(rotated, x);
    examples.push_back({"rotated_bridges", rotated, witness, 32768});
  }
  {
    Hypergraph c6 = catalog::Cycle(6);
    examples.push_back({"even_cycle_C6", c6, lowerbound::UniformHalfWitness(c6), 16384});
  }
  report.AddParam("p", uint64_t{512});
  report.AddParam("seeds_per_example", uint64_t{5});

  bool all_ok = true;
  for (const auto& example : examples) {
    if (!example.witness.provable) {
      std::cout << example.name << ": witness rejected: " << example.witness.reason << "\n";
      all_ok = false;
      continue;
    }
    std::cout << "--- " << example.name << " (rho* = " << example.witness.rho_star
              << ", tau* = " << example.witness.tau_star << ")\n";
    uint32_t p = 512;
    double tau = example.witness.tau_star.ToDouble();

    TablePrinter table({"seed", "N", "L", "J(L) measured", "cap 2L^t N^(r-t)",
                        "measured/cap"});
    bool concentration = true;
    for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      ScopedTimer timer(&report.metrics, "emit_capacity/" + example.name);
      lowerbound::HardInstance hard = lowerbound::DegreeTwoHardInstance(
          example.query, example.witness, example.n, ExperimentSeed(seed));
      uint64_t load = static_cast<uint64_t>(static_cast<double>(hard.n) /
                                            std::pow(static_cast<double>(p), 1.0 / tau));
      lowerbound::EmitCapacityResult r =
          lowerbound::SearchEmitCapacity(example.query, hard, example.witness, load, 100);
      report.metrics.AddCounter("shapes_searched", r.shapes_searched);
      double ratio = static_cast<double>(r.measured) / r.predicted_cap;
      table.AddRow({std::to_string(seed), std::to_string(hard.n), std::to_string(load),
                    std::to_string(r.measured), FormatDouble(r.predicted_cap, 0),
                    FormatDouble(ratio, 3)});
      if (ratio > 1.0 || ratio < 1.0 / 64.0) concentration = false;
    }
    table.Print(std::cout);

    double new_bound = lowerbound::CountingArgumentLoadBound(example.n, p,
                                                             example.witness.tau_star);
    double agm_bound = static_cast<double>(example.n) /
                       std::pow(static_cast<double>(p),
                                1.0 / example.witness.rho_star.ToDouble());
    std::cout << "load bound at p=512: tau*-based " << FormatDouble(new_bound, 1)
              << " vs rho*-based " << FormatDouble(agm_bound, 1) << " ("
              << (new_bound >= agm_bound ? "stronger-or-equal" : "weaker") << ")\n\n";
    all_ok = all_ok && concentration && new_bound + 1e-9 >= agm_bound * 0.5;
  }

  FinishReport(report, all_ok);
  return report;
}

}  // namespace bench
}  // namespace coverpack
