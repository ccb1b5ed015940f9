/// \file workloads.h
/// \brief The four coverpack_perf workloads.
///
/// A workload builds its inputs from the seed (Setup), then exposes a cycle
/// of distinct operations. The harness times Run, and only Run, of each
/// operation; Check verifies the result against the oracle outside the
/// timed region and returns the operation's load fingerprint, which must
/// match the pinned one. Probe inputs feed the trace-only layer probes.

#ifndef COVERPACK_BENCH_PERF_WORKLOADS_H_
#define COVERPACK_BENCH_PERF_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perf_harness.h"
#include "mpc/load_tracker.h"
#include "query/hypergraph.h"
#include "relation/instance.h"
#include "resilience/fault_plan.h"

namespace coverpack {
namespace perf {

/// Servers per query everywhere in the benchmark.
inline constexpr uint32_t kServers = 64;

/// CI's crash-storm spec: every cyclic_faulted op and every faulted probe
/// runs under it.
inline resilience::FaultSpec CrashStorm() {
  resilience::FaultSpec spec;
  spec.seed = 7;
  spec.crash_rate = 0.05;
  spec.drop_rate = 0.001;
  spec.duplicate_rate = 0.001;
  return spec;
}

/// One query with its instance and the oracle's answer on it.
struct QueryInput {
  std::string name;
  Hypergraph query;
  Instance instance;
  bool acyclic = false;  ///< set with the oracle's answer
  uint64_t oracle_rows = 0;
  uint64_t oracle_digest = 0;
};

/// One run of the paper's algorithm for a query's class.
struct JoinRun {
  Relation results;
  uint64_t output_count = 0;
  uint32_t rounds = 0;
  uint64_t max_load = 0;
  uint64_t total_communication = 0;
  LoadTracker load_tracker{1};
};

/// Theorem 5's multi-round algorithm (optimal policy) on an acyclic query,
/// the skew-aware one-round algorithm on a cyclic one; kServers servers,
/// results collected.
JoinRun RunJoin(const QueryInput& input);

/// Wall time of the two phases of one Setup call.
struct SetupTimes {
  double generate_ms = 0.0;  ///< building queries and instances
  double oracle_ms = 0.0;    ///< the oracle over every input
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs from `seed` and runs the oracle over them.
  virtual SetupTimes Setup(uint64_t seed) = 0;

  /// Number of distinct operations; op i of the run is (i mod CycleLength).
  virtual size_t CycleLength() const = 0;
  virtual std::string OpName(size_t index) const = 0;

  /// The timed operation. `op` numbers the run's operations, for spans.
  virtual void Run(size_t index, uint64_t op, Tracer* tracer) = 0;

  /// Verifies the last Run and releases its result. Returns the load
  /// fingerprint; sets *error when the result is wrong.
  virtual std::string Check(size_t index, std::string* error) = 0;

  /// The queries the trace-only layer probes run on.
  virtual const std::vector<QueryInput>& ProbeInputs() const = 0;

  /// Workload-specific numbers for the result file's detail, not metrics.
  virtual std::map<std::string, double> Detail() const { return {}; }
};

/// The workload names, in benchmark order.
const std::vector<std::string>& WorkloadNames();

/// nullptr for an unknown name. `smoke` trims paper_suite to the quick
/// experiments.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, bool smoke);

}  // namespace perf
}  // namespace coverpack

#endif  // COVERPACK_BENCH_PERF_WORKLOADS_H_
