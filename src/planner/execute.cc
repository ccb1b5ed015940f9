#include "planner/execute.h"

#include "core/acyclic_join.h"
#include "core/one_round.h"
#include "core/output_balanced.h"
#include "util/logging.h"

namespace coverpack {
namespace planner {

RunResult Execute(Algorithm algorithm, const Hypergraph& query, const Instance& instance,
                  uint32_t p, bool collect, uint64_t load_threshold) {
  switch (algorithm) {
    case Algorithm::kAcyclicMultiRound:
      return ComputeAcyclicJoin(query, instance,
                                {.policy = RunPolicy::kOptimal,
                                 .collect = collect,
                                 .load_threshold = load_threshold,
                                 .p = p});
    case Algorithm::kOutputBalanced:
      return ComputeOutputBalanced(query, instance, p, {.collect = collect});
    case Algorithm::kOneRound:
      return ComputeOneRoundSkewAware(query, instance, p, {.collect = collect});
  }
  CP_CHECK(false) << "unknown algorithm";
  return {};
}

}  // namespace planner
}  // namespace coverpack
