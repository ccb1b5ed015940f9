/// \file probes.h
/// \brief Trace-only layer probes: every layer's public entry points, timed
/// one by one on a workload's probe inputs, plus the counts the layers'
/// ledgers record while the core algorithm runs.
///
/// A traced run calls them after its operations, so they never disturb the
/// operations it times.

#ifndef COVERPACK_BENCH_PERF_PROBES_H_
#define COVERPACK_BENCH_PERF_PROBES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perf_harness.h"
#include "workloads.h"

namespace coverpack {
namespace perf {

/// A metric's name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric of a traced run, in report order. The probe
/// metrics come from RunLayerProbes; workload.generate_ms and
/// relation.oracle_ms from set-up; trace.op_ms_p50 from the operations.
const std::vector<MetricSpec>& LayerMetrics();

/// Runs every probe once over `inputs` and returns the per-input means
/// (ratios are ratios of the sums). Spans are tagged with `round`.
std::map<std::string, double> RunLayerProbes(const std::vector<QueryInput>& inputs,
                                             uint64_t round, Tracer* tracer);

}  // namespace perf
}  // namespace coverpack

#endif  // COVERPACK_BENCH_PERF_PROBES_H_
