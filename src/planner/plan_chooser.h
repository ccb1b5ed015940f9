/// \file plan_chooser.h
/// \brief Picks one algorithm from the menu for one (query, p, stats).
///
/// PlanChooser::Choose filters the cost model's table to the applicable,
/// exponent-safe candidates and picks the minimum by (estimated load,
/// estimated ticks, algorithm order) — a total order, so the decision is
/// deterministic and bit-identical anywhere the stats are. The returned
/// PlanDecision carries the whole cost table plus the join-order DP's
/// intra-server order so a failing differential test can print the full
/// repro, and a Digest() so determinism/chaos tests can byte-diff
/// decisions across thread counts and fault schedules.

#ifndef COVERPACK_PLANNER_PLAN_CHOOSER_H_
#define COVERPACK_PLANNER_PLAN_CHOOSER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "planner/cost_model.h"
#include "planner/stats.h"
#include "query/hypergraph.h"

namespace coverpack {
namespace planner {

/// The chooser's verdict for one (query, p, stats) triple.
struct PlanDecision {
  Algorithm algorithm = Algorithm::kOneRound;
  uint64_t est_load = 0;
  uint32_t est_rounds = 0;
  uint64_t est_cost_ticks = 0;
  uint64_t out_estimate = 0;   ///< the DP's OUT estimate
  std::string join_order;      ///< intra-server join order (DP rendering)
  CostTable table;             ///< every candidate, for repro printing
  LpNumbers lp;
  std::string rationale;       ///< one line: why this candidate won

  /// Deterministic byte-digest of the decision and its inputs' summary —
  /// equal digests mean the chooser saw the same stats and decided the
  /// same way. No floats, no pointers, no iteration over unordered state.
  std::string Digest() const;
};

/// Tallies the planner's work across one experiment or service run; the
/// telemetry layer snapshots this into planner.* report metrics.
struct DecisionLedger {
  uint64_t decisions_one_round = 0;
  uint64_t decisions_acyclic = 0;
  uint64_t decisions_output_balanced = 0;
  uint64_t cache_hits = 0;    ///< decisions served from a PlanCache entry
  uint64_t cache_misses = 0;  ///< decisions computed fresh
  std::vector<double> est_error_ratios;  ///< est_load / actual_load per run

  void CountDecision(Algorithm algorithm);
  uint64_t TotalDecisions() const;
};

class PlanChooser {
 public:
  /// Chooses the algorithm; computes the LP numbers internally.
  static PlanDecision Choose(const Hypergraph& query, uint32_t p,
                             const StatsSnapshot& stats);

  /// Same, with LP numbers the caller already computed (ComputeLpNumbers).
  static PlanDecision Choose(const Hypergraph& query, uint32_t p,
                             const StatsSnapshot& stats, const LpNumbers& lp);
};

}  // namespace planner
}  // namespace coverpack

#endif  // COVERPACK_PLANNER_PLAN_CHOOSER_H_
