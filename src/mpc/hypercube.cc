#include "mpc/hypercube.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "lp/simplex.h"
#include "mpc/exchange.h"
#include "relation/oracle.h"
#include "util/arena.h"
#include "util/audit.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/thread_pool.h"

namespace coverpack {
namespace mpc {

namespace {

/// Per-attribute salted hash for grid coordinates.
uint32_t CoordinateHash(AttrId attr, Value value, uint32_t extent) {
  if (extent <= 1) return 0;
  return static_cast<uint32_t>(MixHash(value * 0x100000001B3ull + attr + 1) % extent);
}

/// Reduces integer shares until their product fits into p, removing from
/// the largest dimension first (costs the least in load).
void FitSharesToP(std::vector<uint32_t>* shares, uint32_t p, uint64_t* grid_size) {
  auto product = [&] {
    uint64_t total = 1;
    for (uint32_t share : *shares) {
      total *= share;
      if (total > (uint64_t{1} << 40)) break;
    }
    return total;
  };
  while (product() > p) {
    auto it = std::max_element(shares->begin(), shares->end());
    CP_CHECK_GT(*it, 1u) << "cannot fit shares into p";
    --(*it);
  }
  *grid_size = product();
  CP_AUDIT_ONLY(audit::SimulatorAuditor::VerifyGridFits(*shares, *grid_size, p,
                                                        "FitSharesToP");)
}

/// floor(p^(num/den)) computed exactly when p^num fits in 64 bits, with a
/// floating-point fallback for extreme exponents.
uint32_t IntegerPower(uint32_t p, const Rational& exponent) {
  if (exponent.is_zero() || !exponent.is_positive()) return 1;
  uint64_t num = static_cast<uint64_t>(exponent.num());
  uint32_t den = static_cast<uint32_t>(exponent.den());
  double bits = static_cast<double>(num) * std::log2(static_cast<double>(p));
  if (bits < 62.0) {
    uint64_t powered = SaturatingPow(p, static_cast<uint32_t>(num));
    return static_cast<uint32_t>(FloorNthRoot(powered, den));
  }
  return static_cast<uint32_t>(
      std::floor(std::pow(static_cast<double>(p), exponent.ToDouble())));
}

/// Charge-only HyperCube routing of one relation. A row lands on every
/// grid cell that agrees with its coordinates on the relation's own (bound)
/// attributes, so a cell receives exactly the rows of its bound projection:
/// the plan needs each bound cell's row count, not the replicas. Rows are
/// counted per kExchangeRouteGrain shard into per-shard arrays, merged in
/// shard order, and every grid cell is planned its projection's count.
void PlanBoundCellCounts(const Relation& relation, const ShareVector& shares,
                         const uint64_t* stride, const ArenaVector<AttrId>& bound,
                         const ArenaVector<uint32_t>& cols, ExchangePlan* plan) {
  const size_t rows = relation.size();
  if (rows == 0) return;
  // Mixed-radix strides over the bound dimensions only.
  std::vector<uint64_t> bound_stride(bound.size());
  uint64_t bound_cells = 1;
  for (size_t j = 0; j < bound.size(); ++j) {
    bound_stride[j] = bound_cells;
    bound_cells *= shares.shares[bound[j]];
  }
  const size_t num_shards = ThreadPool::NumShards(0, rows, kExchangeRouteGrain);
  std::vector<std::vector<uint64_t>> shard_counts(num_shards);
  ThreadPool::Global().ParallelForShards(
      0, rows, kExchangeRouteGrain, [&](size_t shard_begin, size_t shard_end, size_t shard) {
        shard_end = std::min(shard_end, rows);
        std::vector<uint64_t>& local = shard_counts[shard];
        local.assign(bound_cells, 0);
        for (size_t i = shard_begin; i < shard_end; ++i) {
          auto row = relation.row(i);
          uint64_t bound_cell = 0;
          for (size_t j = 0; j < bound.size(); ++j) {
            bound_cell += bound_stride[j] *
                          CoordinateHash(bound[j], row[cols[j]], shares.shares[bound[j]]);
          }
          ++local[bound_cell];
        }
      });
  std::vector<uint64_t> counts(bound_cells, 0);
  for (const std::vector<uint64_t>& local : shard_counts) {
    for (uint64_t b = 0; b < bound_cells; ++b) counts[b] += local[b];
  }
  for (uint64_t cell = 0; cell < shares.grid_size; ++cell) {
    uint64_t projection = 0;
    for (size_t j = 0; j < bound.size(); ++j) {
      const uint32_t extent = shares.shares[bound[j]];
      projection += bound_stride[j] * ((cell / stride[bound[j]]) % extent);
    }
    plan->PlanReceive(static_cast<uint32_t>(cell), counts[projection]);
  }
}

}  // namespace

ShareVector OptimizeShares(const Hypergraph& query, uint32_t p) {
  uint32_t num_attrs = query.num_attrs();
  // Variables: y_0..y_{n-1}, t. Maximize t subject to
  //   sum_x y_x <= 1, and for every edge e: t - sum_{x in e} y_x <= 0.
  LinearProgram lp(num_attrs + 1);
  std::vector<Rational> budget(num_attrs + 1, Rational(0));
  for (AttrId v : query.AllAttrs().ToVector()) budget[v] = Rational(1);
  lp.AddLeq(budget, Rational(1));
  for (const auto& edge : query.edges()) {
    std::vector<Rational> row(num_attrs + 1, Rational(0));
    row[num_attrs] = Rational(1);
    for (AttrId v : edge.attrs.ToVector()) row[v] = Rational(-1);
    lp.AddLeq(row, Rational(0));
  }
  std::vector<Rational> objective(num_attrs + 1, Rational(0));
  objective[num_attrs] = Rational(1);
  lp.SetObjective(objective);
  LpResult solved = lp.Maximize();
  CP_CHECK_EQ(solved.status, LpStatus::kOptimal);

  ShareVector result;
  result.objective = solved.objective;
  result.exponents.assign(solved.solution.begin(), solved.solution.begin() + num_attrs);
  result.shares.assign(num_attrs, 1);
  for (AttrId v = 0; v < num_attrs; ++v) {
    result.shares[v] = std::max<uint32_t>(1, IntegerPower(p, result.exponents[v]));
  }
  FitSharesToP(&result.shares, p, &result.grid_size);
  return result;
}

ShareVector UniformShares(const Hypergraph& query, AttrSet attrs, uint32_t p) {
  ShareVector result;
  uint32_t num_attrs = query.num_attrs();
  result.shares.assign(num_attrs, 1);
  result.exponents.assign(num_attrs, Rational(0));
  uint32_t k = attrs.size();
  if (k == 0) {
    result.grid_size = 1;
    return result;
  }
  uint32_t per_dim = static_cast<uint32_t>(FloorNthRoot(p, k));
  per_dim = std::max<uint32_t>(1, per_dim);
  for (AttrId v : attrs.ToVector()) {
    result.shares[v] = per_dim;
    result.exponents[v] = Rational(1, k);
  }
  FitSharesToP(&result.shares, p, &result.grid_size);
  return result;
}

ShareVector OptimizeSharesForSizes(const Hypergraph& query,
                                   const std::vector<uint64_t>& relation_sizes, uint32_t p) {
  CP_CHECK_EQ(relation_sizes.size(), query.num_edges());
  uint32_t num_attrs = query.num_attrs();
  ShareVector result;
  result.shares.assign(num_attrs, 1);

  auto cost = [&](const std::vector<uint32_t>& shares) {
    double total = 0.0;
    for (uint32_t e = 0; e < query.num_edges(); ++e) {
      double denom = 1.0;
      for (AttrId v : query.edge(e).attrs.ToVector()) {
        denom *= static_cast<double>(shares[v]);
      }
      total += static_cast<double>(relation_sizes[e]) / denom;
    }
    return total;
  };
  auto product = [&](const std::vector<uint32_t>& shares) {
    uint64_t total = 1;
    for (uint32_t share : shares) {
      total *= share;
      if (total > p) return total;
    }
    return total;
  };

  // Greedy: repeatedly increment the share that lowers the replication
  // cost the most while the grid still fits into p.
  bool improved = true;
  while (improved) {
    improved = false;
    double best_cost = cost(result.shares);
    AttrId best_attr = num_attrs;
    for (AttrId v : query.AllAttrs().ToVector()) {
      std::vector<uint32_t> trial = result.shares;
      ++trial[v];
      if (product(trial) > p) continue;
      double trial_cost = cost(trial);
      if (trial_cost < best_cost - 1e-12) {
        best_cost = trial_cost;
        best_attr = v;
      }
    }
    if (best_attr != num_attrs) {
      ++result.shares[best_attr];
      improved = true;
    }
  }
  result.grid_size = product(result.shares);
  CP_CHECK_LE(result.grid_size, p);
  CP_AUDIT_ONLY(audit::SimulatorAuditor::VerifyGridFits(result.shares, result.grid_size, p,
                                                        "OptimizeSharesForSizes");)
  return result;
}

HypercubeResult HypercubeJoin(Cluster* cluster, const Hypergraph& query,
                              const Instance& instance, const ShareVector& shares,
                              uint32_t round, bool collect) {
  instance.CheckAgainst(query);
  uint32_t num_attrs = query.num_attrs();
  CP_CHECK_EQ(shares.shares.size(), num_attrs);
  CP_CHECK_LE(shares.grid_size, cluster->p());
  CP_AUDIT_ONLY(audit::SimulatorAuditor::VerifyGridFits(shares.shares, shares.grid_size,
                                                        cluster->p(), "HypercubeJoin");)

  // Mixed-radix strides over attribute dimensions. All routing scratch
  // (strides, per-edge bound/free dimension arrays) lives in one arena
  // frame: AddSource evaluates routes before returning, so nothing below
  // outlives the frame.
  ArenaScope scope;
  Arena* arena = scope.arena();
  uint64_t* stride = arena->AllocateArray<uint64_t>(num_attrs);
  uint64_t extent = 1;
  for (AttrId v = 0; v < num_attrs; ++v) {
    stride[v] = extent;
    extent *= shares.shares[v];
  }
  CP_CHECK_EQ(extent, shares.grid_size);

  // Route every tuple of every relation to all consistent grid cells: one
  // Exchange over the grid with one routed source per relation. In collect
  // mode the routes are recorded and Execute delivers the rows; otherwise
  // each grid cell is planned the receive count of its bound projection.
  std::vector<Instance> per_server;
  if (collect) per_server.assign(shares.grid_size, Instance(query));
  ExchangePlan plan(static_cast<uint32_t>(shares.grid_size));
  CP_AUDIT_ONLY(uint64_t expected_receives = 0;)

  for (uint32_t e = 0; e < query.num_edges(); ++e) {
    const Relation& relation = instance[e];
    AttrSet edge_attrs = query.edge(e).attrs;
    // Free dimensions: attributes not in this relation with share > 1.
    ArenaVector<AttrId> free_dims(arena);
    uint64_t free_combos = 1;
    for (AttrId v = 0; v < num_attrs; ++v) {
      if (!edge_attrs.Contains(v) && shares.shares[v] > 1) {
        free_dims.push_back(v);
        free_combos *= shares.shares[v];
      }
    }
    // Hypercube replication factor: every tuple of e lands on exactly
    // free_combos grid cells, one per combination of free coordinates.
    CP_AUDIT_ONLY(expected_receives += relation.size() * free_combos;)
    ArenaVector<uint32_t> cols(arena);
    ArenaVector<AttrId> bound(arena);
    for (AttrId v : edge_attrs.ToVector()) {
      bound.push_back(v);
      cols.push_back(relation.ColumnOf(v));
    }
    if (!collect) {
      PlanBoundCellCounts(relation, shares, stride, bound, cols, &plan);
      continue;
    }
    auto route_row = [&](size_t i, const auto& emit) {
      auto row = relation.row(i);
      uint64_t base = 0;
      for (size_t j = 0; j < bound.size(); ++j) {
        base += stride[bound[j]] * CoordinateHash(bound[j], row[cols[j]], shares.shares[bound[j]]);
      }
      // Enumerate all combinations over the free dimensions.
      for (uint64_t combo = 0; combo < free_combos; ++combo) {
        uint64_t cell = base;
        uint64_t rest = combo;
        for (AttrId v : free_dims) {
          cell += stride[v] * (rest % shares.shares[v]);
          rest /= shares.shares[v];
        }
        emit(cell);
      }
    };
    // Source index == edge index: AddSource is called once per edge, in
    // edge order, so the sink below can key destinations by edge.
    plan.AddSource(relation, /*record=*/true, route_row, free_combos);
  }

  HypercubeResult result;
  ExchangeStats stats;
  if (collect) {
    // Delivery replays routes in ascending (edge, shard, row) order — the
    // per-cell append order of the serial path.
    stats = Exchange::Execute(
        cluster, round, plan,
        [&per_server](size_t edge, uint32_t cell) { return &per_server[cell][edge]; },
        "hypercube");
  } else {
    stats = Exchange::Execute(cluster, round, plan, "hypercube");
  }
  result.max_receive_load = stats.max_receive;
  // Routing conservation: the grid received exactly size(e) * free_combos(e)
  // tuples per relation. (The planned == charged half of the invariant is
  // audited inside Exchange::Execute.)
  CP_AUDIT_ONLY(audit::SimulatorAuditor::VerifyExchange(expected_receives, stats.planned,
                                                        "HypercubeJoin routing");)

  if (collect) {
    result.results = DistRelation(query.AllAttrs(), cluster->p());
    // Per-cell joins are independent: each writes its own output shard, and
    // the per-cell counts are summed in cell order afterwards.
    std::vector<uint64_t> cell_outputs(shares.grid_size, 0);
    ThreadPool::Global().ParallelFor(0, shares.grid_size, 1, [&](size_t s) {
      Relation local = GenericJoin(query, per_server[s]);
      cell_outputs[s] = local.size();
      result.results.shard(static_cast<uint32_t>(s)) = std::move(local);
    });
    for (uint64_t count : cell_outputs) result.output_count += count;
  }
  return result;
}

}  // namespace mpc
}  // namespace coverpack
