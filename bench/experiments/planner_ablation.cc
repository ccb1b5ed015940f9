/// \file planner_ablation.cc
/// \brief Differential ablation of the cost-based plan chooser.
///
/// Runs the planner's seeded differential corpus (named catalog shapes
/// plus random acyclic / degree-two queries under matching, uniform, and
/// Zipf instances) and, per case, executes *every* applicable algorithm of
/// the menu, then checks two claims against the measured loads:
///
///  1. **Near-best constants.** The chooser's pick lands within 10% of the
///     best measured bottleneck load on at least 95% of the corpus.
///  2. **Exponent never lost.** On every single case the pick's measured
///     load stays within the output-balanced slack factor (4x) of the best
///     measured load — the guard rails in the cost model make losing more
///     than constants impossible, and this verifies it empirically.
///
/// Any violating case prints the full (query, stats, cost table, measured
/// runs) repro block. The --planner flag forces one algorithm for the
/// whole corpus wherever it applies (claims are only judged in auto mode
/// — forced runs exist to measure what the chooser is saving). Decision
/// tallies, chooser cache reuse, and the est/actual error distribution
/// land in the report as planner.* metrics (see EXPERIMENTS.md).

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "experiments/runners.h"
#include "planner/differential.h"
#include "telemetry/planner_metrics.h"
#include "util/hash.h"

namespace coverpack {
namespace bench {

namespace {

PlannerBenchOverrides g_planner_overrides;

constexpr uint32_t kRandomCases = 24;
constexpr uint32_t kServers = 64;
constexpr double kWithinSlack = 1.10;   ///< claim 1: within 10% of best
constexpr double kWithinQuota = 0.95;   ///< ... on >= 95% of the corpus
constexpr double kExponentSlack = 4.0;  ///< claim 2: never beyond 4x best

}  // namespace

void SetPlannerBenchOverrides(const PlannerBenchOverrides& overrides) {
  g_planner_overrides = overrides;
}

telemetry::RunReport RunPlannerAblation(const Experiment& e) {
  telemetry::RunReport report = MakeReport(e);
  Banner(e.title, e.claim);

  const std::string mode_name =
      g_planner_overrides.mode.empty() ? "auto" : g_planner_overrides.mode;
  // "auto" names no algorithm, so it leaves the chooser in charge.
  const std::optional<planner::Algorithm> forced_algorithm =
      planner::ParseAlgorithm(mode_name);
  const bool forced = forced_algorithm.has_value();

  const uint64_t seed = ExperimentSeed(HashCombine(0x91A77E4, 1));
  const std::vector<planner::DifferentialCase> corpus =
      planner::BuildDifferentialCorpus(seed, kRandomCases);

  report.AddParam("planner_mode", mode_name);
  report.AddParam("corpus_cases", static_cast<uint64_t>(corpus.size()));
  report.AddParam("servers", uint64_t{kServers});
  report.AddParam("seed", seed);

  planner::DecisionLedger ledger;
  uint64_t within = 0;
  uint64_t exponent_ok = 0;
  TablePrinter table({"case", "decision", "est_load", "actual", "best", "best_algo",
                      "est/actual"});
  for (const planner::DifferentialCase& c : corpus) {
    planner::DifferentialOutcome outcome =
        planner::EvaluateCase(c.query, c.instance, kServers);
    // A forced algorithm overrides the chooser wherever it applies; cases
    // where it does not keep the chooser's pick.
    if (forced) {
      for (const planner::AlgorithmRun& run : outcome.runs) {
        if (run.algorithm != *forced_algorithm) continue;
        outcome.decision.algorithm = *forced_algorithm;
        outcome.decision.est_load =
            outcome.decision.table.ForAlgorithm(*forced_algorithm).est_load;
        outcome.chosen_actual_load = run.max_load;
        outcome.chosen_actual_ticks = run.actual_ticks;
      }
    }
    ledger.CountDecision(outcome.decision.algorithm);
    ++ledger.cache_misses;  // every bench case is planned fresh
    if (outcome.chosen_actual_load > 0) {
      ledger.est_error_ratios.push_back(
          static_cast<double>(outcome.decision.est_load) /
          static_cast<double>(outcome.chosen_actual_load));
    }

    const bool case_within = outcome.ChooserWithin(kWithinSlack);
    const bool case_exponent = outcome.ChooserWithin(kExponentSlack);
    if (case_within) ++within;
    if (case_exponent) ++exponent_ok;
    if (!forced && (!case_within || !case_exponent)) {
      std::cout << outcome.Repro(c.name, c.query, kServers);
    }
    const double ratio =
        outcome.chosen_actual_load == 0
            ? 0.0
            : static_cast<double>(outcome.decision.est_load) /
                  static_cast<double>(outcome.chosen_actual_load);
    table.AddRow({c.name, planner::AlgorithmName(outcome.decision.algorithm),
                  std::to_string(outcome.decision.est_load),
                  std::to_string(outcome.chosen_actual_load),
                  std::to_string(outcome.best_actual_load),
                  planner::AlgorithmName(outcome.best_algorithm),
                  FormatDouble(ratio, 3)});
  }
  table.Print(std::cout);

  const double within_fraction =
      corpus.empty() ? 0.0 : static_cast<double>(within) / static_cast<double>(corpus.size());
  const bool within_ok = within_fraction >= kWithinQuota;
  const bool exponent_never_lost = exponent_ok == corpus.size();

  telemetry::SnapshotPlannerStatsInto(ledger, "ablation", &report.metrics);
  report.metrics.SetGauge("planner.ablation.within_10pct_fraction", within_fraction);
  report.metrics.AddCounter("planner.ablation.exponent_violations",
                            static_cast<uint64_t>(corpus.size()) - exponent_ok);

  std::cout << "within 10% of best actual load: " << within << "/" << corpus.size()
            << " (need >= " << kWithinQuota * 100 << "%): "
            << (within_ok ? "yes" : "NO")
            << "\nexponent never lost (<= " << kExponentSlack << "x best on every case): "
            << (exponent_never_lost ? "yes" : "NO") << "\n";

  // Forced modes are diagnostic sweeps; only the chooser itself is judged.
  FinishReport(report, forced || (within_ok && exponent_never_lost));
  return report;
}

}  // namespace bench
}  // namespace coverpack
