#include "planner/cost_model.h"

#include <algorithm>
#include <sstream>

#include "core/load_planner.h"
#include "lp/covers.h"
#include "mpc/hypercube.h"
#include "query/join_tree.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace coverpack {
namespace planner {

namespace {

uint64_t TickCost(uint32_t rounds, uint64_t load) {
  return uint64_t{rounds} * kRoundLatencyTicks + CeilDiv(load, kTuplesPerTick);
}

/// One-round estimate: the size-aware share optimizer's expected
/// per-server receive volume, plus the residual load of the heaviest
/// value of every sharded attribute (the skew-aware split spreads a heavy
/// value of relation e over every dimension of e's grid slice except the
/// skewed one).
CostEstimate EstimateOneRound(const Hypergraph& query, uint32_t p,
                              const StatsSnapshot& stats) {
  CostEstimate est;
  est.algorithm = Algorithm::kOneRound;
  est.applicable = true;
  const mpc::ShareVector shares =
      mpc::OptimizeSharesForSizes(query, stats.RelationSizes(), p);
  uint64_t uniform = 0;
  uint64_t skew = 0;
  for (EdgeId e = 0; e < query.num_edges(); ++e) {
    const RelationStats& relation = stats.relations[e];
    uint64_t cell_divisor = 1;
    for (AttrId x : query.edge(e).attrs.ToVector()) {
      cell_divisor = SaturatingMul(cell_divisor, shares.shares[x], kEstimateCap);
    }
    uniform = SaturatingAdd(uniform, CeilDiv(relation.rows, cell_divisor), kEstimateCap);
    for (AttrId x : query.edge(e).attrs.ToVector()) {
      if (shares.shares[x] <= 1) continue;
      const uint64_t other_dims = std::max<uint64_t>(1, cell_divisor / shares.shares[x]);
      skew = std::max(skew, CeilDiv(relation.ColumnFor(x).max_degree, other_dims));
    }
  }
  est.est_load = std::max(uniform, skew);
  est.est_rounds = 1;
  est.est_cost_ticks = TickCost(est.est_rounds, est.est_load);
  std::ostringstream detail;
  detail << "grid=" << shares.grid_size << " uniform=" << uniform << " skew=" << skew;
  est.detail = detail.str();
  return est;
}

/// Theorem 5 estimate: the Theorem 4 threshold from the stats' sizes
/// (core's PlanLoadOptimal, the L the executor runs with), floored by the
/// scatter round's N_total/p.
CostEstimate EstimateAcyclic(const Hypergraph& query, uint32_t p,
                             const StatsSnapshot& stats, const LpNumbers& lp,
                             uint64_t threshold) {
  CostEstimate est;
  est.algorithm = Algorithm::kAcyclicMultiRound;
  est.applicable = lp.acyclic;
  if (!est.applicable) return est;
  const uint64_t scatter = CeilDiv(stats.total_rows, uint64_t{p});
  est.est_load = std::max(threshold, scatter);
  est.est_rounds = 2 + query.num_edges();
  est.est_cost_ticks = TickCost(est.est_rounds, est.est_load);
  std::ostringstream detail;
  detail << "L=" << threshold << " scatter=" << scatter;
  est.detail = detail.str();
  return est;
}

/// Output-balanced estimate: input slice N_total/p plus the output share
/// OUT/p, floored by the heaviest root-tuple extension group (the
/// implementation never splits one root tuple's extensions).
CostEstimate EstimateOutputBalanced(const Hypergraph& query, uint32_t p,
                                    const StatsSnapshot& stats, const LpNumbers& lp,
                                    const JoinOrderPlan& dp) {
  CostEstimate est;
  est.algorithm = Algorithm::kOutputBalanced;
  est.applicable = lp.acyclic && lp.join_tree_roots == 1;
  if (!est.applicable) return est;
  uint64_t heavy_group = 1;
  const auto tree = JoinTree::Build(query);
  CP_CHECK(tree.has_value());
  for (uint32_t node = 0; node < tree->num_nodes(); ++node) {
    if (tree->IsRoot(node)) continue;
    const AttrSet shared = query.edge(node).attrs.Intersect(
        query.edge(tree->parent(node)).attrs);
    // Extensions per parent tuple: the child's heaviest join-key degree,
    // taking the tightest shared attribute (all must match).
    uint64_t factor = kEstimateCap;
    for (AttrId x : shared.ToVector()) {
      factor = std::min(factor, stats.relations[node].ColumnFor(x).max_degree);
    }
    if (shared.empty()) factor = std::max<uint64_t>(1, stats.relations[node].rows);
    heavy_group = SaturatingMul(heavy_group, std::max<uint64_t>(1, factor), kEstimateCap);
  }
  // One root tuple's extension group can never exceed the whole output, so
  // the degree product (wildly pessimistic under skew — every max degree
  // rarely stacks on one tuple) is capped by the DP's OUT estimate.
  heavy_group = std::min(heavy_group, std::max<uint64_t>(1, dp.out_estimate));
  const uint64_t input_slice = CeilDiv(stats.total_rows, uint64_t{p});
  const uint64_t out_slice = CeilDiv(dp.out_estimate, uint64_t{p});
  est.est_load = SaturatingAdd(input_slice, std::max(out_slice, heavy_group), kEstimateCap);
  est.est_rounds = 5;  // 3 semi-join reduction rounds + weights + slices
  est.est_cost_ticks = TickCost(est.est_rounds, est.est_load);
  std::ostringstream detail;
  detail << "OUT~" << dp.out_estimate << " in/p=" << input_slice
         << " out/p=" << out_slice << " heavy_group=" << heavy_group;
  est.detail = detail.str();
  return est;
}

}  // namespace

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kOneRound: return "one_round";
    case Algorithm::kAcyclicMultiRound: return "acyclic";
    case Algorithm::kOutputBalanced: return "output_balanced";
  }
  return "unknown";
}

std::optional<Algorithm> ParseAlgorithm(const std::string& name) {
  for (Algorithm algorithm : {Algorithm::kOneRound, Algorithm::kAcyclicMultiRound,
                              Algorithm::kOutputBalanced}) {
    if (name == AlgorithmName(algorithm)) return algorithm;
  }
  return std::nullopt;
}

uint64_t ExecutionTicks(const LoadTracker& tracker) {
  uint64_t ticks = 0;
  for (uint32_t r = 0; r < tracker.num_rounds(); ++r) {
    ticks += TickCost(1, tracker.MaxLoadOfRound(r));
  }
  return ticks;
}

LpNumbers ComputeLpNumbers(const Hypergraph& query) {
  LpNumbers lp;
  lp.rho_star = RhoStar(query);
  lp.tau_star = TauStar(query);
  lp.psi_star = EdgeQuasiPackingNumber(query);
  const auto tree = JoinTree::Build(query);
  lp.acyclic = tree.has_value();
  lp.join_tree_roots = lp.acyclic ? static_cast<uint32_t>(tree->Roots().size()) : 0;
  return lp;
}

const CostEstimate& CostTable::ForAlgorithm(Algorithm algorithm) const {
  return entries[static_cast<size_t>(algorithm)];
}

std::string CostTable::ToString() const {
  std::ostringstream out;
  out << "thm5_threshold=" << thm5_threshold << " OUT~" << join_order.out_estimate
      << " C_out~" << join_order.c_out << " order=" << join_order.order << "\n";
  for (const CostEstimate& est : entries) {
    out << "  " << AlgorithmName(est.algorithm)
        << (est.applicable ? "" : " [inapplicable]")
        << (est.applicable && !est.exponent_safe ? " [exponent-unsafe]" : "");
    if (est.applicable) {
      out << " load~" << est.est_load << " rounds~" << est.est_rounds << " ticks~"
          << est.est_cost_ticks << " (" << est.detail << ")";
    }
    out << "\n";
  }
  return out.str();
}

CostTable EstimateCosts(const Hypergraph& query, uint32_t p, const StatsSnapshot& stats,
                        const LpNumbers& lp) {
  CP_CHECK_GE(p, 1u);
  CP_CHECK_EQ(stats.relations.size(), query.num_edges());
  CostTable table;
  table.join_order = PlanJoinOrder(query, stats);
  table.thm5_threshold = lp.acyclic ? PlanLoadOptimal(query, stats.RelationSizes(), p) : 0;

  CostEstimate one_round = EstimateOneRound(query, p, stats);
  CostEstimate acyclic = EstimateAcyclic(query, p, stats, lp, table.thm5_threshold);
  CostEstimate balanced =
      EstimateOutputBalanced(query, p, stats, lp, table.join_order);

  // Exponent guards (see the header): Theorem 5 is the yardstick whenever
  // the query is acyclic.
  acyclic.exponent_safe = acyclic.applicable;
  one_round.exponent_safe = !lp.acyclic || lp.psi_star == lp.rho_star;
  balanced.exponent_safe =
      balanced.applicable && acyclic.applicable &&
      balanced.est_load <= SaturatingMul(kOutputBalancedSlack,
                                         std::max<uint64_t>(1, acyclic.est_load), kEstimateCap);

  table.entries = {one_round, acyclic, balanced};
  return table;
}

}  // namespace planner
}  // namespace coverpack
