/// \file execute.h
/// \brief Runs one algorithm of the menu on one (query, instance, p).
///
/// The single place that knows how each Algorithm executes: which core
/// entry point it calls and with which options. Every entry point returns
/// the same RunResult, so Execute passes it on as is. The query service
/// executes its cached plans through Execute, and the differential harness
/// runs every applicable menu entry through it, so the two can never
/// disagree on what "running algorithm X" means.

#ifndef COVERPACK_PLANNER_EXECUTE_H_
#define COVERPACK_PLANNER_EXECUTE_H_

#include <cstdint>

#include "core/run_result.h"
#include "planner/cost_model.h"
#include "query/hypergraph.h"
#include "relation/instance.h"

namespace coverpack {
namespace planner {

/// Runs `algorithm` on p servers. With `collect` set the result holds the
/// join's rows. `load_threshold` is Theorem 4's L for the multi-round run
/// (0 = plan it for p) and is ignored by the other algorithms. The
/// algorithm must be applicable to the query (see CostEstimate::applicable).
RunResult Execute(Algorithm algorithm, const Hypergraph& query, const Instance& instance,
                  uint32_t p, bool collect, uint64_t load_threshold = 0);

}  // namespace planner
}  // namespace coverpack

#endif  // COVERPACK_PLANNER_EXECUTE_H_
