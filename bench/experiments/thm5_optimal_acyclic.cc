/// \file thm5_optimal_acyclic.cc
/// \brief Validates Theorem 5: the multi-round algorithm computes any
/// alpha-acyclic join with load O(N / p^(1/rho*)) in O(1) rounds.
///
/// For each acyclic query we sweep p on a fixed-N instance, measure the
/// max per-round load of the optimal run, and fit the exponent of load vs
/// p on log-log scale; it must match -1/rho*. We also check the round
/// count stays constant and the allocated servers stay within a constant
/// of the budget p.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/acyclic_join.h"
#include "core/load_planner.h"
#include "experiments/runners.h"
#include "lp/covers.h"
#include "query/catalog.h"
#include "workload/generators.h"

namespace coverpack {
namespace bench {

namespace {

struct Workload {
  std::string name;
  Hypergraph query;
  uint64_t n;
};

}  // namespace

telemetry::RunReport RunThm5OptimalAcyclic(const Experiment& e) {
  telemetry::RunReport report = MakeReport(e);
  Banner(e.title, e.claim);

  std::vector<Workload> workloads;
  workloads.push_back({"line3", catalog::Line3(), 20000});
  workloads.push_back({"path5", catalog::Path(5), 8000});
  workloads.push_back({"star4", catalog::Star(4), 8000});
  workloads.push_back({"star_dual3", catalog::StarDual(3), 20000});
  workloads.push_back({"alpha_not_berge", catalog::AlphaNotBerge(), 4000});
  workloads.push_back({"figure4", catalog::Figure4Query(), 2000});

  std::vector<uint32_t> ps{4, 16, 64, 256, 1024};
  bool all_ok = true;
  {
    telemetry::JsonValue p_grid = telemetry::JsonValue::Array();
    for (uint32_t p : ps) p_grid.Append(telemetry::JsonValue::Uint(p));
    report.params.Set("p_sweep", std::move(p_grid));
    report.AddParam("workloads", static_cast<uint64_t>(workloads.size()));
  }

  for (const auto& w : workloads) {
    ScopedTimer workload_timer(&report.metrics, "workload/" + w.name);
    Rational rho = RhoStar(w.query);
    double theory_exponent = -1.0 / rho.ToDouble();
    Instance instance = workload::MatchingInstance(w.query, w.n);

    TablePrinter table({"p", "L planned", "L measured", "rounds", "servers used",
                        "theory N/p^(1/rho*)"});
    std::vector<double> xs;
    std::vector<double> ys;
    uint32_t max_rounds = 0;
    bool servers_ok = true;
    for (uint32_t p : ps) {
      AcyclicRunOptions options;
      options.policy = RunPolicy::kOptimal;
      options.collect = false;
      options.p = p;
      AcyclicRunResult run = ComputeAcyclicJoin(w.query, instance, options);
      ProfileRun(report, w.name + "/p" + std::to_string(p), run.load_tracker);
      double theory = static_cast<double>(w.n) /
                      std::pow(static_cast<double>(p), 1.0 / rho.ToDouble());
      table.AddRow({std::to_string(p), std::to_string(run.load_threshold),
                    std::to_string(run.max_load), std::to_string(run.rounds),
                    std::to_string(run.servers_used), FormatDouble(theory, 1)});
      xs.push_back(static_cast<double>(p));
      ys.push_back(static_cast<double>(run.max_load));
      max_rounds = std::max(max_rounds, run.rounds);
      if (run.servers_used > 16ull * p + 16) servers_ok = false;
    }
    std::cout << "--- " << w.name << " (rho* = " << rho << ", N = " << w.n << ")\n";
    table.Print(std::cout);
    PowerLawFit fit = FitPowerLaw(xs, ys);
    bool exponent_ok =
        ReportExponent(report, w.name, fit.slope, theory_exponent, /*tolerance=*/0.12);
    std::cout << "rounds stay constant across the sweep: max " << max_rounds
              << "; servers within 16x budget: " << (servers_ok ? "yes" : "NO") << "\n\n";
    all_ok = all_ok && exponent_ok && servers_ok;
  }

  FinishReport(report, all_ok);
  return report;
}

}  // namespace bench
}  // namespace coverpack
