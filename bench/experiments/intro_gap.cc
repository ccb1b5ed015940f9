/// \file intro_gap.cc
/// \brief Regenerates the Section 1.3 motivating gaps.
///
/// (a) R1(A) |><| R2(A,B) |><| R3(B): one round forces ~N/p^(1/2)
///     (psi* = 2) on the skewed worst case, while two semi-join rounds run
///     with linear load N/p (rho* = 1): a sqrt(p) gap.
/// (b) the star-dual join R0(X1..Xk) |><| R1(X1) ... |><| Rk(Xk): the gap
///     widens to p^((k-1)/k).
/// We sweep p, fit both load curves, and compare the exponents. Note the
/// psi* one-round bound is information-theoretic (it holds for *every*
/// one-round algorithm); a simulator can only execute specific algorithms,
/// which may beat psi* on friendly instances — so the assertions here are
/// (a) the multi-round load is linear (exponent -1) and (b) the
/// one-round / multi-round gap grows with p, reaching the predicted order.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/acyclic_join.h"
#include "core/one_round.h"
#include "experiments/runners.h"
#include "lp/covers.h"
#include "query/catalog.h"
#include "workload/generators.h"

namespace coverpack {
namespace bench {

namespace {

/// Worst-case instance for one-round on the semi-join example: R2 is a
/// full bipartite product over sqrt(N) x sqrt(N) values, R1 and R3 cover
/// the full domains.
Instance SemiJoinWorstCase(const Hypergraph& q, uint64_t n) {
  Instance instance(q);
  uint64_t side = static_cast<uint64_t>(std::sqrt(static_cast<double>(n)));
  for (Value a = 0; a < side; ++a) {
    for (Value b = 0; b < side; ++b) instance[1].AppendRow({a, b});
  }
  for (Value a = 0; a < side; ++a) instance[0].AppendRow({a});
  for (Value b = 0; b < side; ++b) instance[2].AppendRow({b});
  return instance;
}

/// Worst case for one round on star-dual: R0 a Cartesian product over
/// n^(1/k)-sized domains; satellites cover the domains.
Instance StarDualWorstCase(const Hypergraph& q, uint32_t k, uint64_t n) {
  Instance instance(q);
  uint64_t side = static_cast<uint64_t>(std::pow(static_cast<double>(n), 1.0 / k) + 1e-9);
  std::vector<uint64_t> dims(k, side);
  instance[0] = workload::Cartesian(q.edge(0).attrs, dims);
  for (uint32_t i = 1; i <= k; ++i) {
    for (Value v = 0; v < side; ++v) instance[i].AppendRow({v});
  }
  return instance;
}

}  // namespace

telemetry::RunReport RunIntroGap(const Experiment& e) {
  telemetry::RunReport report = MakeReport(e);
  Banner(e.title, e.claim);

  bool all_ok = true;
  std::vector<uint32_t> ps{16, 64, 256, 1024};

  {
    Hypergraph q = catalog::SemiJoinExample();
    uint64_t n = 16384;
    Instance instance = SemiJoinWorstCase(q, n);
    report.AddParam("semi_join_N", n);
    std::cout << "--- semi-join example, psi* = " << EdgeQuasiPackingNumber(q)
              << ", rho* = " << RhoStar(q) << "\n";
    TablePrinter table({"p", "one-round load", "multi-round load", "gap"});
    std::vector<double> xs, one_round_loads, multi_loads;
    for (uint32_t p : ps) {
      OneRoundOptions or_options;
      or_options.collect = false;
      RunResult one = ComputeOneRoundSkewAware(q, instance, p, or_options);
      AcyclicRunOptions mr_options;
      mr_options.collect = false;
      mr_options.p = p;
      AcyclicRunResult multi = ComputeAcyclicJoin(q, instance, mr_options);
      if (p == ps.back()) {
        ProfileRun(report, "semi_join/one_round/p" + std::to_string(p), one.load_tracker);
        ProfileRun(report, "semi_join/multi_round/p" + std::to_string(p),
                   multi.load_tracker);
      }
      table.AddRow({std::to_string(p), std::to_string(one.max_load),
                    std::to_string(multi.max_load),
                    FormatDouble(static_cast<double>(one.max_load) /
                                     std::max<uint64_t>(1, multi.max_load),
                                 2)});
      xs.push_back(p);
      one_round_loads.push_back(static_cast<double>(one.max_load));
      multi_loads.push_back(static_cast<double>(multi.max_load));
    }
    table.Print(std::cout);
    PowerLawFit one_fit = FitPowerLaw(xs, one_round_loads);
    PowerLawFit multi_fit = FitPowerLaw(xs, multi_loads);
    std::cout << "one-round fitted exponent " << FormatDouble(one_fit.slope, 3)
              << " (worst-case guarantee -1/psi* = -0.5)\n";
    bool ok2 = ReportExponent(report, "multi-round (rho*=1)", multi_fit.slope, -1.0, 0.2);
    double gap_first = one_round_loads.front() / std::max(1.0, multi_loads.front());
    double gap_last = one_round_loads.back() / std::max(1.0, multi_loads.back());
    bool gap_grows = gap_last > 1.5 * gap_first && gap_last >= 4.0;
    std::cout << "one-round/multi-round gap grows from " << FormatDouble(gap_first, 2)
              << " to " << FormatDouble(gap_last, 2) << " across the p sweep ["
              << (gap_grows ? "GROWS" : "FLAT") << "]\n";
    report.metrics.SetGauge("semi_join_gap_first", gap_first);
    report.metrics.SetGauge("semi_join_gap_last", gap_last);
    all_ok = all_ok && ok2 && gap_grows;
    std::cout << "\n";
  }

  {
    uint32_t k = 3;
    Hypergraph q = catalog::StarDual(k);
    uint64_t n = 27000;
    Instance instance = StarDualWorstCase(q, k, n);
    report.AddParam("star_dual_N", n);
    report.AddParam("star_dual_k", uint64_t{k});
    std::cout << "--- star-dual (k=3), psi* = " << EdgeQuasiPackingNumber(q)
              << ", rho* = " << RhoStar(q) << "\n";
    TablePrinter table({"p", "one-round load", "multi-round load", "gap"});
    std::vector<double> xs, one_round_loads, multi_loads;
    for (uint32_t p : ps) {
      OneRoundOptions or_options;
      or_options.collect = false;
      RunResult one = ComputeOneRoundSkewAware(q, instance, p, or_options);
      AcyclicRunOptions mr_options;
      mr_options.collect = false;
      mr_options.p = p;
      AcyclicRunResult multi = ComputeAcyclicJoin(q, instance, mr_options);
      if (p == ps.back()) {
        ProfileRun(report, "star_dual/one_round/p" + std::to_string(p), one.load_tracker);
        ProfileRun(report, "star_dual/multi_round/p" + std::to_string(p),
                   multi.load_tracker);
      }
      table.AddRow({std::to_string(p), std::to_string(one.max_load),
                    std::to_string(multi.max_load),
                    FormatDouble(static_cast<double>(one.max_load) /
                                     std::max<uint64_t>(1, multi.max_load),
                                 2)});
      xs.push_back(p);
      one_round_loads.push_back(static_cast<double>(one.max_load));
      multi_loads.push_back(static_cast<double>(multi.max_load));
    }
    table.Print(std::cout);
    PowerLawFit one_fit = FitPowerLaw(xs, one_round_loads);
    PowerLawFit multi_fit = FitPowerLaw(xs, multi_loads);
    std::cout << "one-round fitted exponent " << FormatDouble(one_fit.slope, 3)
              << " (worst-case guarantee -1/psi* = -0.333)\n";
    bool ok2 = ReportExponent(report, "multi-round (rho*=1)", multi_fit.slope, -1.0, 0.2);
    double gap_first = one_round_loads.front() / std::max(1.0, multi_loads.front());
    double gap_last = one_round_loads.back() / std::max(1.0, multi_loads.back());
    bool gap_grows = gap_last > 1.5 * gap_first;
    std::cout << "one-round/multi-round gap grows from " << FormatDouble(gap_first, 2)
              << " to " << FormatDouble(gap_last, 2) << " across the p sweep ["
              << (gap_grows ? "GROWS" : "FLAT") << "]\n";
    report.metrics.SetGauge("star_dual_gap_first", gap_first);
    report.metrics.SetGauge("star_dual_gap_last", gap_last);
    all_ok = all_ok && ok2 && gap_grows;
  }

  FinishReport(report, all_ok);
  return report;
}

}  // namespace bench
}  // namespace coverpack
