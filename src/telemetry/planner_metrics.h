/// \file planner_metrics.h
/// \brief Bridges a planner::DecisionLedger into a report's Metrics (and
/// therefore into BENCH_results.json).
///
/// Follows the service_metrics.h pattern: the planner layer exposes a
/// plain struct (no telemetry dependency), and this translation lives in
/// cp_telemetry. Keys are scoped by scenario — "planner.<scenario>.*" —
/// covering the decision tallies (one_round / acyclic / output_balanced),
/// the chooser's PlanCache reuse counters, and the estimated-vs-actual
/// load error distribution. EXPERIMENTS.md documents the schema.

#ifndef COVERPACK_TELEMETRY_PLANNER_METRICS_H_
#define COVERPACK_TELEMETRY_PLANNER_METRICS_H_

#include <string>

#include "planner/plan_chooser.h"
#include "util/ledger.h"

namespace coverpack {
namespace telemetry {

/// Writes `ledger` into `metrics` under "planner.<scenario>.*". Every
/// value is a pure count or a ratio of two deterministic integers —
/// bit-identical across thread counts by construction. Call from the
/// thread that owns `metrics`.
void SnapshotPlannerStatsInto(const planner::DecisionLedger& ledger,
                              const std::string& scenario, Metrics* metrics);

}  // namespace telemetry
}  // namespace coverpack

#endif  // COVERPACK_TELEMETRY_PLANNER_METRICS_H_
