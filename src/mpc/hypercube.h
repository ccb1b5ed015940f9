/// \file hypercube.h
/// \brief The one-round HyperCube (shares) algorithm [3, 6].
///
/// Servers are arranged in a grid with one dimension per attribute; each
/// attribute gets a *share* p_x with prod_x p_x <= p. A tuple of relation e
/// is replicated to every grid cell that agrees with the hashes of its
/// attributes. On skew-free instances the optimal share exponents come from
/// the LP dual of fractional edge packing, giving load ~ N / p^(1/tau*);
/// on skewed instances the load degrades (the very gap Table 1 shows and
/// that the paper's multi-round algorithm closes).

#ifndef COVERPACK_MPC_HYPERCUBE_H_
#define COVERPACK_MPC_HYPERCUBE_H_

#include <cstdint>
#include <vector>

#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "query/hypergraph.h"
#include "relation/instance.h"
#include "util/rational.h"

namespace coverpack {
namespace mpc {

/// Share assignment: one integer share per AttrId (attrs outside the query
/// get share 1). prod(shares) <= p.
struct ShareVector {
  std::vector<uint32_t> shares;          ///< grid extent per attribute
  std::vector<Rational> exponents;       ///< the LP exponents y_x (share_x ~ p^y_x)
  Rational objective;                    ///< min_e sum_{x in e} y_x (= 1/tau* at optimum)
  uint64_t grid_size = 1;                ///< prod(shares)
};

/// Solves max_y min_e sum_{x in e} y_x subject to sum_x y_x <= 1, y >= 0,
/// then rounds shares to integers with prod <= p (largest-share decrement).
/// The optimal objective equals 1/tau* by LP duality.
ShareVector OptimizeShares(const Hypergraph& query, uint32_t p);

/// Uniform shares p^(1/k) over a chosen subset of attributes; others 1.
/// Only tests call it: the Cartesian-product step (Case II) lays its
/// components on a grid of their own clusters and merges their trackers
/// with LoadTracker::MergeMapped.
ShareVector UniformShares(const Hypergraph& query, AttrSet attrs, uint32_t p);

/// Size-aware integer share optimization: greedily grows shares to
/// minimize the actual per-server replication cost
/// sum_e N_e / prod_{x in e} share_x subject to prod shares <= p.
/// The LP of OptimizeShares can have many optimal vertices with poor grid
/// utilization on concrete instances; this greedy optimizes the measured
/// quantity directly and is what the executable algorithms use.
ShareVector OptimizeSharesForSizes(const Hypergraph& query,
                                   const std::vector<uint64_t>& relation_sizes, uint32_t p);

/// Result of a hypercube run.
struct HypercubeResult {
  uint64_t max_receive_load = 0;  ///< max tuples received by one server
  uint64_t output_count = 0;      ///< join results found (collect mode)
  DistRelation results;           ///< per-server results (collect mode)
};

/// Executes one round of HyperCube routing for `instance` with `shares`,
/// charging actual receives in `round`. If `collect` is set, every server
/// then joins its fragments locally (worst-case-optimal sequential join)
/// and the results are returned.
HypercubeResult HypercubeJoin(Cluster* cluster, const Hypergraph& query,
                              const Instance& instance, const ShareVector& shares,
                              uint32_t round, bool collect);

}  // namespace mpc
}  // namespace coverpack

#endif  // COVERPACK_MPC_HYPERCUBE_H_
