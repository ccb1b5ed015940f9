/// \file execute.h
/// \brief Runs one algorithm of the menu on one (query, instance, p).
///
/// The single place that knows how each Algorithm executes: which core
/// entry point it calls, with which options, and how that run's result
/// fields map onto one common summary. The query service executes its
/// cached plans through Execute, and the differential harness runs every
/// applicable menu entry through it, so the two can never disagree on
/// what "running algorithm X" means.

#ifndef COVERPACK_PLANNER_EXECUTE_H_
#define COVERPACK_PLANNER_EXECUTE_H_

#include <cstdint>

#include "mpc/load_tracker.h"
#include "planner/cost_model.h"
#include "query/hypergraph.h"
#include "relation/instance.h"

namespace coverpack {
namespace planner {

/// The measured summary of one executed run, common to every algorithm.
struct ExecutedRun {
  uint64_t max_load = 0;
  uint32_t rounds = 0;
  uint64_t total_communication = 0;
  uint64_t servers_used = 0;
  uint64_t load_threshold = 0;  ///< the L the run used; 0 unless multi-round
  uint64_t output_count = 0;
  LoadTracker load_tracker{1};  ///< the full (round, server) load matrix
};

/// Runs `algorithm` on p servers. `collect` materializes the join results
/// inside the run (they are not returned). `load_threshold` is Theorem 4's
/// L for the multi-round run (0 = plan it for p) and is ignored by the
/// other algorithms. The algorithm must be applicable to the query (see
/// CostEstimate::applicable).
ExecutedRun Execute(Algorithm algorithm, const Hypergraph& query, const Instance& instance,
                    uint32_t p, bool collect, uint64_t load_threshold = 0);

}  // namespace planner
}  // namespace coverpack

#endif  // COVERPACK_PLANNER_EXECUTE_H_
