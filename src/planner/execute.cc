#include "planner/execute.h"

#include <utility>

#include "core/acyclic_join.h"
#include "core/one_round.h"
#include "core/output_balanced.h"

namespace coverpack {
namespace planner {

ExecutedRun Execute(Algorithm algorithm, const Hypergraph& query, const Instance& instance,
                    uint32_t p, bool collect, uint64_t load_threshold) {
  ExecutedRun summary;
  switch (algorithm) {
    case Algorithm::kAcyclicMultiRound: {
      AcyclicRunOptions options;
      options.policy = RunPolicy::kOptimal;
      options.collect = collect;
      options.p = p;
      options.load_threshold = load_threshold;
      AcyclicRunResult run = ComputeAcyclicJoin(query, instance, options);
      summary.max_load = run.max_load;
      summary.rounds = run.rounds;
      summary.total_communication = run.total_communication;
      summary.servers_used = run.servers_used;
      summary.load_threshold = run.load_threshold;
      summary.output_count = run.output_count;
      summary.load_tracker = std::move(run.load_tracker);
      break;
    }
    case Algorithm::kOutputBalanced: {
      OutputBalancedOptions options;
      options.collect = collect;
      OutputBalancedResult run = ComputeOutputBalanced(query, instance, p, options);
      summary.max_load = run.max_load;
      summary.rounds = run.rounds;
      summary.total_communication = run.total_communication;
      summary.servers_used = run.load_tracker.num_servers();
      summary.output_count = run.output_count;
      summary.load_tracker = std::move(run.load_tracker);
      break;
    }
    case Algorithm::kOneRound: {
      OneRoundOptions options;
      options.collect = collect;
      OneRoundResult run = ComputeOneRoundSkewAware(query, instance, p, options);
      summary.max_load = run.max_load;
      summary.rounds = run.rounds;
      summary.total_communication = run.load_tracker.TotalCommunication();
      summary.servers_used = run.servers_used;
      summary.output_count = run.output_count;
      summary.load_tracker = std::move(run.load_tracker);
      break;
    }
  }
  return summary;
}

}  // namespace planner
}  // namespace coverpack
