/// \file differential.h
/// \brief Differential harness for the plan chooser: run every applicable
/// algorithm on one (query, instance, p) and compare the chooser's pick
/// against the actual bottleneck loads.
///
/// This is the oracle both the planner differential test and the
/// planner_ablation bench experiment share. EvaluateCase builds the
/// statistics, asks the chooser, then *executes the whole menu*: every
/// cost-table entry marked applicable runs through planner::Execute —
/// the same path the query service executes its plans on — and its
/// RunResult is kept with its ExecutionTicks. The outcome knows the
/// best actual load, whether the chooser's pick landed within a given
/// slack of it, and how to print a full (query, stats, cost table, actual
/// runs) repro when it did not.
///
/// BuildDifferentialCorpus generates the seeded workload the claims are
/// checked over: named catalog shapes plus random acyclic / degree-two
/// queries under matching (skew-free), uniform, and Zipf-skewed instances.
/// Everything is derived from the one seed — no wall clock, no global rng
/// — so every failure is replayable from the case name alone.

#ifndef COVERPACK_PLANNER_DIFFERENTIAL_H_
#define COVERPACK_PLANNER_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/run_result.h"
#include "planner/plan_chooser.h"
#include "planner/stats.h"
#include "query/hypergraph.h"
#include "relation/instance.h"

namespace coverpack {
namespace planner {

/// One algorithm's measured (charge-only) run on one case; its max_load
/// is the actual bottleneck load the chooser's pick is judged by.
struct AlgorithmRun : RunResult {
  Algorithm algorithm = Algorithm::kOneRound;
  uint64_t actual_ticks = 0;  ///< ExecutionTicks of the run
};

/// One corpus entry. The name encodes generator + seed index, so a failing
/// case is reconstructible from the printed repro alone.
struct DifferentialCase {
  std::string name;
  Hypergraph query;
  Instance instance;
};

/// The chooser's decision next to the whole menu's measured truth.
struct DifferentialOutcome {
  PlanDecision decision;
  StatsSnapshot stats;
  uint32_t p = 0;
  std::vector<AlgorithmRun> runs;  ///< ascending Algorithm order, applicable only
  uint64_t chosen_actual_load = 0;
  uint64_t chosen_actual_ticks = 0;
  uint64_t best_actual_load = 0;
  Algorithm best_algorithm = Algorithm::kOneRound;

  /// True when the chosen algorithm's measured load is within `slack`
  /// (multiplicative, e.g. 1.10 = 10%) of the best measured load — with
  /// the best floored at one balanced input share (total rows / p): the
  /// input must reside somewhere, so any pick at or below that floor is
  /// as good as optimal even when a near-empty join let some algorithm
  /// measure an (incomparable) load of zero.
  bool ChooserWithin(double slack) const;

  /// Full repro block: query, per-relation stats, the cost table, and the
  /// measured run of every applicable algorithm.
  std::string Repro(const std::string& case_name, const Hypergraph& query,
                    uint32_t p) const;
};

/// Runs the chooser and the full applicable menu on one case.
DifferentialOutcome EvaluateCase(const Hypergraph& query, const Instance& instance,
                                 uint32_t p);

/// The seeded corpus: a fixed block of named catalog shapes (matching,
/// uniform, and Zipf instances) followed by `random_cases` generated
/// queries cycling through {acyclic x matching, acyclic x uniform,
/// acyclic x zipf, degree-two x uniform}.
std::vector<DifferentialCase> BuildDifferentialCorpus(uint64_t seed,
                                                      uint32_t random_cases);

}  // namespace planner
}  // namespace coverpack

#endif  // COVERPACK_PLANNER_DIFFERENTIAL_H_
