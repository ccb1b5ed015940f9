/// \file table1_complexity.cc
/// \brief Regenerates Table 1: worst-case complexity of join evaluation in
/// the MPC model, one row per query class.
///
/// Columns mirror the paper's table: the one-round complexity in terms of
/// psi*, the multi-round upper bound in terms of rho* (acyclic: Theorem 5),
/// and the multi-round lower bound in terms of tau* (edge-packing-provable
/// cyclic joins: Theorems 6/7). Measured loads at a fixed (N, p) accompany
/// every theory column that our simulator can exercise.

#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "core/acyclic_join.h"
#include "core/one_round.h"
#include "experiments/runners.h"
#include "lowerbound/emit_capacity.h"
#include "lp/covers.h"
#include "lp/packing_provable.h"
#include "query/catalog.h"
#include "query/properties.h"
#include "workload/generators.h"

namespace coverpack {
namespace bench {

telemetry::RunReport RunTable1Complexity(const Experiment& e) {
  telemetry::RunReport report = MakeReport(e);
  Banner(e.title, e.claim);

  uint64_t n = 8192;
  uint32_t p = 64;
  std::cout << "N = " << n << ", p = " << p << ", matching (skew-free) instances\n\n";
  report.AddParam("N", n);
  report.AddParam("p", p);
  report.AddParam("instance_family", "matching");

  TablePrinter table({"query", "class", "psi*", "rho*", "tau*", "1-round load",
                      "N/p^(1/psi*)", "multi-round load", "N/p^(1/rho*)",
                      "lower bnd N/p^(1/tau*)"});

  bool all_ok = true;
  for (const auto& entry : catalog::StandardRoster()) {
    const Hypergraph& q = entry.query;
    Rational psi = EdgeQuasiPackingNumber(q);
    Rational rho = RhoStar(q);
    Rational tau = TauStar(q);
    bool acyclic = IsAlphaAcyclic(q);
    report.metrics.AddCounter(acyclic ? "queries_acyclic" : "queries_cyclic");

    Instance instance = workload::MatchingInstance(q, n);

    OneRoundOptions or_options;
    or_options.collect = false;
    RunResult one = ComputeOneRoundSkewAware(q, instance, p, or_options);
    ProfileRun(report, entry.name + "/one_round", one.load_tracker);
    double psi_theory =
        static_cast<double>(n) / std::pow(static_cast<double>(p), 1.0 / psi.ToDouble());

    std::string multi_load = "-";
    std::string rho_theory = "-";
    if (acyclic) {
      AcyclicRunOptions options;
      options.collect = false;
      options.p = p;
      AcyclicRunResult run = ComputeAcyclicJoin(q, instance, options);
      ProfileRun(report, entry.name + "/multi_round", run.load_tracker);
      multi_load = std::to_string(run.max_load);
      double theory =
          static_cast<double>(n) / std::pow(static_cast<double>(p), 1.0 / rho.ToDouble());
      rho_theory = FormatDouble(theory, 0);
      // Shape: within 16x of theory.
      double measured = static_cast<double>(run.max_load);
      if (measured > 16.0 * theory || measured * 16.0 < theory) all_ok = false;
    }

    std::string lower = "-";
    PackingProvability witness = AnalyzePackingProvable(q);
    if (witness.provable) {
      lower = FormatDouble(lowerbound::CountingArgumentLoadBound(n, p, tau), 0);
    }

    table.AddRow({entry.name, acyclic ? "acyclic" : "cyclic", psi.ToString(), rho.ToString(),
                  tau.ToString(), std::to_string(one.max_load), FormatDouble(psi_theory, 0),
                  multi_load, rho_theory, lower});
  }
  table.Print(std::cout);
  std::cout << "(matching instances are skew-free, so the one-round algorithm performs at\n"
               " its tau*-governed best here; its psi* column is the worst-case guarantee,\n"
               " attained on the adversarial instances of bench_intro_gap.)\n";

  FinishReport(report, all_ok);
  return report;
}

}  // namespace bench
}  // namespace coverpack
