#include "planner/join_order_dp.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "util/logging.h"
#include "util/math_util.h"

namespace coverpack {
namespace planner {

namespace {

uint64_t CardToU64(long double value) {
  if (value <= 0.0L) return 0;
  if (value >= static_cast<long double>(kEstimateCap)) return kEstimateCap;
  return static_cast<uint64_t>(std::llroundl(value));
}

}  // namespace

uint64_t EstimateSubsetCardinality(const Hypergraph& query, const StatsSnapshot& stats,
                                   EdgeSet subset) {
  CP_CHECK(!subset.empty());
  long double estimate = 1.0L;
  for (EdgeId e : subset.ToVector()) {
    const uint64_t rows = stats.relations[e].rows;
    if (rows == 0) return 0;
    estimate *= static_cast<long double>(rows);
  }
  for (AttrId x : query.AttrsOf(subset).ToVector()) {
    std::vector<uint64_t> distinct;
    for (EdgeId e : subset.ToVector()) {
      if (query.edge(e).attrs.Contains(x)) {
        distinct.push_back(stats.relations[e].ColumnFor(x).distinct);
      }
    }
    if (distinct.size() < 2) continue;
    // Preservation of values: the side with the most distinct values
    // supplies the join keys; every further occurrence filters by 1/d.
    std::sort(distinct.begin(), distinct.end(), std::greater<uint64_t>());
    for (size_t i = 1; i < distinct.size(); ++i) {
      estimate /= static_cast<long double>(std::max<uint64_t>(1, distinct[i]));
    }
  }
  return std::max<uint64_t>(1, CardToU64(estimate));
}

JoinOrderPlan PlanJoinOrder(const Hypergraph& query, const StatsSnapshot& stats) {
  const uint32_t m = query.num_edges();
  CP_CHECK_GE(m, 1u);
  CP_CHECK_LE(m, 24u) << "join-order DP is exponential in the edge count";
  const uint64_t full = query.AllEdges().bits();

  JoinOrderPlan plan;
  // Ordered memo tables (project rule: no unordered iteration) keyed by
  // subset bits; numeric subset order visits every proper subset first.
  std::map<uint64_t, uint64_t> cost;
  std::map<uint64_t, std::string> rendering;
  for (uint64_t s = 1; s <= full; ++s) {
    if ((s & full) != s) continue;
    const EdgeSet subset(s);
    const uint64_t card = EstimateSubsetCardinality(query, stats, subset);
    plan.subset_cardinalities[s] = card;
    if (subset.size() == 1) {
      cost[s] = 0;  // base relations are inputs, not intermediates
      rendering[s] = query.edge(subset.First()).name;
      continue;
    }
    uint64_t best_cost = 0;
    uint64_t best_left = 0;
    bool best_connected = false;
    bool found = false;
    // All unordered splits {a, s\a}; canonicalized by a < complement.
    for (uint64_t a = (s - 1) & s; a != 0; a = (a - 1) & s) {
      const uint64_t b = s & ~a;
      if (a >= b) continue;
      const bool connected =
          query.AttrsOf(EdgeSet(a)).Intersects(query.AttrsOf(EdgeSet(b)));
      const uint64_t split_cost = SaturatingAdd(cost[a], cost[b], kEstimateCap);
      // DPccp's connectedness preference: a Cartesian split survives only
      // when no attribute-sharing split exists for this subset.
      const bool better =
          !found || (connected && !best_connected) ||
          (connected == best_connected &&
           (split_cost < best_cost || (split_cost == best_cost && a < best_left)));
      if (better) {
        best_cost = split_cost;
        best_left = a;
        best_connected = connected;
        found = true;
      }
    }
    CP_CHECK(found);
    cost[s] = SaturatingAdd(best_cost, card, kEstimateCap);  // this node's intermediate
    rendering[s] = "(" + rendering[best_left] + " " + rendering[s & ~best_left] + ")";
  }

  plan.out_estimate = plan.subset_cardinalities[full];
  plan.c_out = cost[full];
  plan.order = rendering[full];
  return plan;
}

}  // namespace planner
}  // namespace coverpack
