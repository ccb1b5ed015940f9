/// \file output_sensitivity.cc
/// \brief Regenerates the Section 1.3 output-optimality discussion: the
/// O(N/p + OUT/p) output-balanced algorithm [15] is unbeatable when OUT is
/// small but degenerates to ~N^{rho*}/p as OUT approaches the AGM bound,
/// while Theorem 5's algorithm holds N / p^(1/rho*) throughout — the
/// crossover happens around OUT ~ p^(1 - 1/rho*) * N.

#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "core/acyclic_join.h"
#include "core/output_balanced.h"
#include "experiments/runners.h"
#include "query/catalog.h"
#include "relation/oracle.h"
#include "workload/generators.h"

namespace coverpack {
namespace bench {

namespace {

/// Line-3 instance with tunable output: bipartite blocks of size `side`
/// replicated to keep N fixed; OUT grows with side^2 per block chain.
Instance TunableOutputInstance(const Hypergraph& q, uint64_t n, uint64_t side) {
  Instance instance(q);
  uint64_t blocks = n / (side * side);
  CP_CHECK_GE(blocks, 1u);
  for (uint64_t block = 0; block < blocks; ++block) {
    Value base = static_cast<Value>(block * side);
    for (Value a = 0; a < side; ++a) {
      for (Value b = 0; b < side; ++b) {
        instance[0].AppendRow({base + a, base + b});
        instance[1].AppendRow({base + a, base + b});
        instance[2].AppendRow({base + a, base + b});
      }
    }
  }
  return instance;
}

}  // namespace

telemetry::RunReport RunOutputSensitivity(const Experiment& e) {
  telemetry::RunReport report = MakeReport(e);
  Banner(e.title, e.claim);

  Hypergraph q = catalog::Line3();  // rho* = 2
  uint64_t n = 16384;
  uint32_t p = 64;
  report.AddParam("N", n);
  report.AddParam("p", uint64_t{p});
  double theorem5 = static_cast<double>(n) / std::sqrt(static_cast<double>(p));
  std::cout << "N = " << n << ", p = " << p << ", Theorem 5 load ~ N/sqrt(p) = "
            << FormatDouble(theorem5, 0) << "\n\n";

  TablePrinter table({"block side", "OUT", "OUT/(pN)", "output-balanced load",
                      "multi-round load", "winner"});
  bool crossover_seen_low = false;
  bool crossover_seen_high = false;
  for (uint64_t side : {2u, 8u, 32u, 128u}) {
    ScopedTimer timer(&report.metrics, "side" + std::to_string(side));
    Instance instance = TunableOutputInstance(q, n, side);
    uint64_t out = JoinCount(q, instance);

    OutputBalancedOptions ob_options;
    RunResult ob = ComputeOutputBalanced(q, instance, p, ob_options);

    AcyclicRunOptions mr_options;
    mr_options.collect = false;
    mr_options.p = p;
    AcyclicRunResult mr = ComputeAcyclicJoin(q, instance, mr_options);

    ProfileRun(report, "output_balanced/side" + std::to_string(side), ob.load_tracker);
    ProfileRun(report, "multi_round/side" + std::to_string(side), mr.load_tracker);
    report.metrics.SetGauge("out_over_pn/side" + std::to_string(side),
                            static_cast<double>(out) / (p * static_cast<double>(n)));

    bool balanced_wins = ob.max_load < mr.max_load;
    if (balanced_wins) crossover_seen_low = true;
    if (!balanced_wins && side >= 32) crossover_seen_high = true;
    table.AddRow({std::to_string(side), std::to_string(out),
                  FormatDouble(static_cast<double>(out) / (p * static_cast<double>(n)), 2),
                  std::to_string(ob.max_load), std::to_string(mr.max_load),
                  balanced_wins ? "output-balanced" : "multi-round"});
  }
  table.Print(std::cout);
  std::cout << "output-balanced wins while OUT = O(pN); the multi-round algorithm takes "
               "over as OUT approaches the AGM bound N^2.\n";
  bool ok = crossover_seen_low && crossover_seen_high;
  FinishReport(report, ok);
  return report;
}

}  // namespace bench
}  // namespace coverpack
