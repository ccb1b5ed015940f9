#include "telemetry/planner_metrics.h"

#include <algorithm>
#include <vector>

namespace coverpack {
namespace telemetry {

void SnapshotPlannerStatsInto(const planner::DecisionLedger& ledger,
                              const std::string& scenario, Metrics* metrics) {
  const std::string prefix = "planner." + scenario + ".";

  metrics->AddCounter(prefix + "decisions_one_round", ledger.decisions_one_round);
  metrics->AddCounter(prefix + "decisions_acyclic", ledger.decisions_acyclic);
  metrics->AddCounter(prefix + "decisions_output_balanced",
                      ledger.decisions_output_balanced);
  metrics->AddCounter(prefix + "decisions_total", ledger.TotalDecisions());
  metrics->AddCounter(prefix + "cache_hits", ledger.cache_hits);
  metrics->AddCounter(prefix + "cache_misses", ledger.cache_misses);

  // Estimated-vs-actual bottleneck load, as the ratio est/actual. 1.0 is a
  // perfect estimate; buckets tighten around it so the report shows how
  // much of the corpus the model got within 10% / 25% / 2x.
  static const std::vector<double> kErrorBounds{0.25, 0.5, 0.75, 0.9,  1.0,
                                                1.1,  1.25, 1.5,  2.0, 4.0};
  Metrics::Series& errors = metrics->TouchSeries(prefix + "est_error_ratio", kErrorBounds);
  double max_ratio = 0.0;
  double sum = 0.0;
  for (double ratio : ledger.est_error_ratios) {
    errors.samples.push_back(ratio);
    max_ratio = std::max(max_ratio, ratio);
    sum += ratio;
  }
  metrics->SetGauge(prefix + "est_error_max", max_ratio);
  metrics->SetGauge(prefix + "est_error_mean",
                    ledger.est_error_ratios.empty()
                        ? 0.0
                        : sum / static_cast<double>(ledger.est_error_ratios.size()));
}

}  // namespace telemetry
}  // namespace coverpack
