/// \file join_order_dp.h
/// \brief C_out-style dynamic programming over join orders.
///
/// Once tuples land on a server, the intra-server join of an acyclic
/// residual is a sequential multi-way join whose cost is dominated by the
/// sizes of the intermediate results it materializes — mutable's C_out
/// cost function: cost(plan) = sum of |intermediate| over every inner node
/// of the plan tree. This DP searches bushy plans over the connected
/// edge subsets of the query (DPccp-style, but enumerated over the 64-bit
/// EdgeSet masks this library already uses), with cardinalities estimated
/// from the per-column statistics of stats.h under the classic
/// preservation-of-values assumption:
///
///   |S| = prod_{e in S} N_e * prod_{x} prod_{i=2..k_x} 1 / d_i(x)
///
/// where, for each attribute x occurring in k_x >= 2 edges of S, the
/// d_i(x) are the per-edge distinct counts of x sorted descending (each
/// additional occurrence filters by one more 1/d factor, keeping the
/// largest side as the value supply).
///
/// The memo table is a std::map keyed by subset bits — ordered, per the
/// project's no-unordered-iteration rule, so DP traversal (and therefore
/// every tie-break) is deterministic. The full-set entry doubles as the
/// OUT estimate that feeds the output-balanced candidate of the cost
/// model.

#ifndef COVERPACK_PLANNER_JOIN_ORDER_DP_H_
#define COVERPACK_PLANNER_JOIN_ORDER_DP_H_

#include <cstdint>
#include <map>
#include <string>

#include "planner/stats.h"
#include "query/hypergraph.h"

namespace coverpack {
namespace planner {

/// Saturation bound of the planner's cardinality, cost and load estimates,
/// well below uint64 overflow: anything this large only needs to *lose*
/// every cost comparison consistently.
inline constexpr uint64_t kEstimateCap = uint64_t{1} << 60;

/// The best plan the DP found.
struct JoinOrderPlan {
  uint64_t out_estimate = 0;  ///< estimated |Q| (full-set cardinality)
  uint64_t c_out = 0;         ///< sum of estimated intermediate sizes
  std::string order;          ///< rendered best bushy plan, e.g. ((R1 R2) R3)
  /// Estimated cardinality of every enumerated edge subset (by bitmask).
  std::map<uint64_t, uint64_t> subset_cardinalities;
};

/// Estimated cardinality of the join of the edge subset `subset`.
uint64_t EstimateSubsetCardinality(const Hypergraph& query, const StatsSnapshot& stats,
                                   EdgeSet subset);

/// Runs the DP over all 2^num_edges subsets (queries are constant-size;
/// the service caps cacheable shapes well below the 64-edge mask limit).
/// Cartesian splits are allowed but only chosen when no connected split
/// exists, mirroring DPccp's connectedness preference.
JoinOrderPlan PlanJoinOrder(const Hypergraph& query, const StatsSnapshot& stats);

}  // namespace planner
}  // namespace coverpack

#endif  // COVERPACK_PLANNER_JOIN_ORDER_DP_H_
