/// \file em_reduction.cc
/// \brief Regenerates the Section 1.3/1.4 EM-model corollary: Theorem 5
/// plus the MPC->EM reduction of [19] yields an external-memory algorithm
/// with O(N^{rho*} / (M^{rho*-1} B)) I/Os for every alpha-acyclic join —
/// covering queries the earlier Berge-acyclic-only EM algorithm [14]
/// could not (e.g. the alpha-not-berge query).

#include <iostream>

#include "bench_util.h"
#include "core/em_reduction.h"
#include "experiments/runners.h"
#include "lp/covers.h"
#include "query/catalog.h"
#include "query/properties.h"

namespace coverpack {
namespace bench {

telemetry::RunReport RunEmReduction(const Experiment& e) {
  telemetry::RunReport report = MakeReport(e);
  Banner(e.title, e.claim);

  EmCostModel em;
  em.memory = 1 << 16;
  em.block = 1 << 8;
  uint64_t n = 1 << 20;
  report.AddParam("N", n);
  report.AddParam("M", em.memory);
  report.AddParam("B", em.block);
  std::cout << "N = " << n << ", M = " << em.memory << ", B = " << em.block << "\n\n";

  TablePrinter table({"query", "rho*", "berge-acyclic?", "p* (servers simulated)",
                      "I/O (reduction)", "closed form N^r/(M^(r-1)B)", "ratio"});
  bool all_ok = true;
  for (const auto& entry : catalog::StandardRoster()) {
    if (!IsAlphaAcyclic(entry.query)) continue;
    ScopedTimer timer(&report.metrics, "reduction/" + entry.name);
    EmReductionResult result = ReduceMpcToEm(entry.query, n, em, /*rounds=*/1);
    double ratio = static_cast<double>(result.io_count) / result.closed_form;
    report.metrics.AddCounter("acyclic_queries_reduced", 1);
    report.metrics.SetGauge("io_ratio/" + entry.name, ratio);
    table.AddRow({entry.name, RhoStar(entry.query).ToString(),
                  IsBergeAcyclic(entry.query) ? "yes" : "no", std::to_string(result.p_star),
                  std::to_string(result.io_count), FormatDouble(result.closed_form, 0),
                  FormatDouble(ratio, 2)});
    if (ratio > 8.0 || ratio < 1.0 / 8.0) all_ok = false;
  }
  table.Print(std::cout);
  std::cout << "rows with berge-acyclic = no (e.g. alpha_not_berge, figure4) are exactly\n"
               "the acyclic joins the paper newly brings into this EM bound.\n";
  FinishReport(report, all_ok);
  return report;
}

}  // namespace bench
}  // namespace coverpack
