/// \file service_metrics.h
/// \brief Bridges a ServiceRunStats into a report's Metrics (and
/// therefore into BENCH_results.json).
///
/// The service layer returns a per-call result struct (no telemetry
/// dependency), and this translation lives in cp_telemetry, which links
/// cp_service. Keys are scoped by scenario —
/// "service.<scenario>.*" for the scheduler-side numbers and
/// "cache.<scenario>.*" for the PlanCache counters — so one report can
/// carry every (client count, arrival mode, cache state) combination the
/// service_throughput experiment sweeps. EXPERIMENTS.md documents the
/// schema.

#ifndef COVERPACK_TELEMETRY_SERVICE_METRICS_H_
#define COVERPACK_TELEMETRY_SERVICE_METRICS_H_

#include <string>

#include "service/query_service.h"
#include "util/ledger.h"

namespace coverpack {
namespace telemetry {

/// Writes `stats` into `metrics` under "service.<scenario>.*" and
/// "cache.<scenario>.*". Every value is simulated-tick-denominated or a
/// pure count — bit-identical across thread counts by construction. Call
/// from the thread that owns `metrics`.
void SnapshotServiceStatsInto(const service::ServiceRunStats& stats,
                              const std::string& scenario, Metrics* metrics);

}  // namespace telemetry
}  // namespace coverpack

#endif  // COVERPACK_TELEMETRY_SERVICE_METRICS_H_
