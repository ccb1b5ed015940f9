/// \file run_result.h
/// \brief What one run of a join engine measured, common to all of them.
///
/// Table 1 ranks one-round (psi*), multi-round (rho*) and Yannakakis-style
/// (OUT/p) algorithms by one measure: the load and rounds of a run. Every
/// engine entry point (ComputeAcyclicJoin, ComputeOneRoundSkewAware,
/// ComputeOneRoundVanilla, ComputeOutputBalanced, ComputeYannakakis)
/// returns this one struct, so the planner, the service and the benches
/// read every engine's run the same way.

#ifndef COVERPACK_CORE_RUN_RESULT_H_
#define COVERPACK_CORE_RUN_RESULT_H_

#include <cstdint>
#include <utility>

#include "mpc/load_tracker.h"
#include "relation/relation.h"

namespace coverpack {

/// Outcome of one engine run.
///
/// `results` holds the join's rows in collect mode and nothing in
/// charge-only mode (`collect = false`: loads charged, no rows kept).
/// `output_count` is the number of rows in `results`, so 0 in charge-only
/// mode, except for the output-balanced run, which counts its output from
/// its bottom-up weights in both modes.
struct RunResult {
  Relation results;
  uint64_t output_count = 0;
  uint64_t max_load = 0;             ///< max tuples received by a server in a round
  uint32_t rounds = 0;               ///< communication rounds used
  uint64_t total_communication = 0;  ///< tuples received, summed over the tracker
  uint64_t servers_used = 0;         ///< servers the run allocated
  uint64_t load_threshold = 0;       ///< the multi-round run's L; 0 for the others
  /// The run's full (round, server) load matrix; max_load and
  /// total_communication summarize it. The telemetry layer derives
  /// per-round skew profiles from it.
  LoadTracker load_tracker{1};

  /// Takes the run's load matrix and sets max_load and total_communication
  /// from it.
  void SetLoadTracker(LoadTracker tracker) {
    load_tracker = std::move(tracker);
    max_load = load_tracker.MaxLoad();
    total_communication = load_tracker.TotalCommunication();
  }
};

}  // namespace coverpack

#endif  // COVERPACK_CORE_RUN_RESULT_H_
