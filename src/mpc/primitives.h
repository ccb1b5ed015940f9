/// \file primitives.h
/// \brief The deterministic MPC primitives of Section 2.
///
/// All of these are known to run in O(1) rounds with O(N/p) load on p
/// servers [13, 15]. Data *placement* operations (hash partition,
/// broadcast, scatter) charge the actual per-server receive counts;
/// aggregate statistics (reduce-by-key, parallel-packing) are computed on
/// the driver and charged their proven O(N/p)-per-round cost, because their
/// published implementations (sorting-network based) bound the load
/// irrespective of skew — simulating the sorting network itself would only
/// re-derive that constant. DESIGN.md discusses this substitution.
/// ParallelPack charges nothing itself: its one caller, Theorem 5's Case I,
/// charges the packing round together with its statistics rounds.

#ifndef COVERPACK_MPC_PRIMITIVES_H_
#define COVERPACK_MPC_PRIMITIVES_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "relation/instance.h"

namespace coverpack {
namespace mpc {

/// Repartitions `input` by a hash of its `key` attributes; tuples with
/// equal keys land on the same server. Charges actual receives in `round`.
DistRelation HashPartition(Cluster* cluster, const DistRelation& input, AttrSet key,
                           uint32_t round);

/// Charges exactly what HashPartition(cluster, input, key, round) charges,
/// but delivers no row: charge-only routing for a repartition whose output
/// nobody reads.
void ChargeHashPartition(Cluster* cluster, const DistRelation& input, AttrSet key,
                         uint32_t round);

/// Broadcasts `data` to every server of the cluster: charges |data| to each
/// server in `round`. Returns nothing — broadcast data is globally visible
/// to subsequent local computation by construction.
void ChargeBroadcast(Cluster* cluster, size_t data_size, uint32_t round);

/// Charges every server ceil(total_items / p) in `round` — the O(N/p) cost
/// of one round of a sort-based primitive over `total_items` items.
void ChargeLinear(Cluster* cluster, uint64_t total_items, uint32_t round);

/// Reduce-by-key over (value of `attr`, 1) pairs of `input`: the degree of
/// every value of `attr` (Section 2, "Reduce-by-key"). Charges two rounds
/// of O(N/p) starting at *round; advances *round past them.
std::unordered_map<Value, uint64_t> DegreeByValue(Cluster* cluster, const DistRelation& input,
                                                  AttrId attr, uint32_t* round);

/// MPC semi-join (Section 2): keeps the tuples of `left` that match
/// `right` on the shared attributes. Both sides are hash-partitioned on
/// the shared attributes (actual receives charged), then filtered locally.
/// Advances *round by one.
DistRelation SemiJoinMpc(Cluster* cluster, const DistRelation& left, const DistRelation& right,
                         uint32_t* round);

/// Parallel-packing (Section 2 / [15]): groups weights (each <= capacity)
/// into bins of total weight <= 2 * capacity such that all but one bin is
/// at least capacity full. Deterministic first-fit over descending weights.
/// Returns the bin index per item; bins are numbered in the order they
/// open. Pure: the caller charges the primitive's one O(n/p) round.
std::vector<uint32_t> ParallelPack(const std::vector<uint64_t>& weights, uint64_t capacity);

}  // namespace mpc
}  // namespace coverpack

#endif  // COVERPACK_MPC_PRIMITIVES_H_
