/// \file cost_model.h
/// \brief C_out-style cost model over the paper's algorithm menu.
///
/// For one (query, p, stats) triple the model produces a CostTable with
/// one CostEstimate per algorithm the repo implements:
///
///  * one-round skew-aware hypercube (Theorems 2/4 of the one-round
///    literature): per-server load estimated from the size-aware share
///    optimizer's actual grid, plus a degree-skew term — the heaviest
///    value of each shared attribute lands on one grid slice before the
///    skew-aware split kicks in, and after the split still pays its
///    residual-query replication;
///  * multi-round acyclic (Theorem 5): load estimated from Theorem 4's
///    threshold L = max_{S in S(E)} (prod_{e in S} N_e / p)^(1/|S|) —
///    core's PlanLoadOptimal over the statistics' relation sizes, so it
///    is exactly the L the executor runs with;
///  * output-balanced Yannakakis (Theorem 7 / [15]): load N_total/p +
///    OUT/p with OUT estimated by the join-order DP, plus the heaviest
///    root-tuple extension group (the implementation never splits one
///    root tuple's extensions across servers).
///
/// Every estimate also carries a tick cost on the simulated clock defined
/// here (rounds x latency + load / tuples-per-tick) — the same clock
/// ExecutionTicks applies to a measured run and the query service charges
/// executions on — so the chooser can tie-break equal loads by rounds.
///
/// Exponent guards: an estimate is only `exponent_safe` when choosing it
/// cannot lose the best theoretical exponent the query admits — for
/// acyclic queries that yardstick is Theorem 5's -1/rho*; one-round is
/// safe only when psi* == rho* (its own exponent matches), and
/// output-balanced only when its estimated load stays within a constant
/// of the Theorem 5 threshold. The chooser never picks an unsafe entry,
/// so a wildly wrong OUT estimate can cost constants, never exponents.

#ifndef COVERPACK_PLANNER_COST_MODEL_H_
#define COVERPACK_PLANNER_COST_MODEL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mpc/load_tracker.h"
#include "planner/join_order_dp.h"
#include "planner/stats.h"
#include "query/hypergraph.h"
#include "util/rational.h"

namespace coverpack {
namespace planner {

/// The algorithm menu, in fixed display/tie-break order.
enum class Algorithm : uint8_t {
  kOneRound = 0,          ///< skew-aware one-round hypercube
  kAcyclicMultiRound = 1, ///< Theorem 5 worst-case-optimal run
  kOutputBalanced = 2,    ///< output-balanced Yannakakis
};

/// Stable name for reports and flags: "one_round", "acyclic",
/// "output_balanced".
const char* AlgorithmName(Algorithm algorithm);

/// The inverse of AlgorithmName; nullopt on any other string.
std::optional<Algorithm> ParseAlgorithm(const std::string& name);

/// The simulated clock: each round costs a fixed latency plus its
/// bottleneck load at kTuplesPerTick tuples per tick.
inline constexpr uint64_t kRoundLatencyTicks = 32;
inline constexpr uint64_t kTuplesPerTick = 64;

/// Ticks of a measured run on the simulated clock, round by round.
uint64_t ExecutionTicks(const LoadTracker& tracker);

/// Slack factor: output-balanced stays exponent-safe while its estimated
/// load is at most this multiple of the Theorem 5 estimate.
inline constexpr uint64_t kOutputBalancedSlack = 4;

/// The LP numbers and join-forest shape a cost table is conditioned on.
struct LpNumbers {
  Rational rho_star;
  Rational tau_star;
  Rational psi_star;
  bool acyclic = false;
  uint32_t join_tree_roots = 0;  ///< 0 when cyclic
};

LpNumbers ComputeLpNumbers(const Hypergraph& query);

/// One algorithm's estimated cost on one (query, p, stats) triple.
struct CostEstimate {
  Algorithm algorithm = Algorithm::kOneRound;
  bool applicable = false;    ///< structurally runnable on this query
  bool exponent_safe = false; ///< choosing it cannot lose the exponent
  uint64_t est_load = 0;      ///< estimated bottleneck load (tuples)
  uint32_t est_rounds = 0;
  uint64_t est_cost_ticks = 0;
  std::string detail;         ///< the formula trace, for repro printing
};

/// The full menu's estimates plus the shared DP artifacts.
struct CostTable {
  std::vector<CostEstimate> entries;  ///< indexed by Algorithm value
  JoinOrderPlan join_order;           ///< DP result (OUT estimate, C_out)
  uint64_t thm5_threshold = 0;        ///< Theorem 4/5 L from the stats (0 if cyclic)

  const CostEstimate& ForAlgorithm(Algorithm algorithm) const;
  std::string ToString() const;
};

/// Builds the cost table. Pure function of its arguments: no clocks, no
/// randomness, ordered iteration only — bit-identical everywhere.
CostTable EstimateCosts(const Hypergraph& query, uint32_t p, const StatsSnapshot& stats,
                        const LpNumbers& lp);

}  // namespace planner
}  // namespace coverpack

#endif  // COVERPACK_PLANNER_COST_MODEL_H_
