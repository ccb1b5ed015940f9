/// \file elastic.h
/// \brief Elastic p: round-boundary membership changes with deterministic
/// state migration through the Exchange choke point.
///
/// Servers join and leave only at round boundaries (the granularity every
/// bound in the paper is stated at, and the granularity the resilience
/// layer prices recovery at). A membership change triggers one rebalancing
/// Exchange:
///
///  1. Targets: the post-change state distribution is the largest-remainder
///     apportionment of the current row count proportional to the new
///     members' speeds.
///  2. Keeps: every staying server keeps min(current, target) of its own
///     rows — the longest prefix it may retain. Leavers keep nothing.
///  3. Moves: surplus tails stream to deficit servers in ascending
///     (source slot, destination slot) order — a pure function of the
///     shard sizes, so the migration plan is bit-identical across thread
///     counts and fault schedules.
///
/// The move is a regular recorded Exchange: it is charged to the tracker
/// in its round, audited for conservation in COVERPACK_AUDIT builds, and
/// shown to any installed interposer — so a crash-storm FaultPlan faults
/// and prices migrations exactly as it does algorithm exchanges. The
/// pre-migration row count is recorded as the ledger's
/// cluster.checkpoint_tuples.
///
/// RunElasticPipeline drives a synthetic multi-round partition workload
/// over a ClusterProfile — the harness behind the cluster_elastic
/// experiment and the elastic determinism/chaos tests.

#ifndef COVERPACK_CLUSTER_ELASTIC_H_
#define COVERPACK_CLUSTER_ELASTIC_H_

#include <cstdint>
#include <vector>

#include "cluster/cluster_profile.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "mpc/exchange.h"

namespace coverpack {
namespace cluster {

/// What one migration moved.
struct MigrationResult {
  mpc::ExchangeStats stats;          ///< the rebalancing exchange's volumes
  uint64_t tuples_from_leavers = 0;  ///< rows drained off departing servers
  uint64_t tuples_to_joiners = 0;    ///< rows seeding arriving servers
  uint32_t servers_joined = 0;
  uint32_t servers_left = 0;
};

/// Migrates `state` from membership `from` to membership `to` (both
/// ascending slot-id lists over the same slot space), rebalancing to
/// shares proportional to `to_speeds` (aligned with `to`). Charged to
/// `cluster` in `round` and audited like any other exchange. Records the
/// move, and the rows it started from, in the ledger's cluster.* namespace.
/// No-op when `from == to`.
MigrationResult MigrateToEpoch(Cluster* cluster, DistRelation* state,
                               const std::vector<uint32_t>& from,
                               const std::vector<uint32_t>& to,
                               const std::vector<double>& to_speeds, uint32_t round);

/// Configuration of one elastic pipeline run.
struct ElasticRunConfig {
  uint32_t base_p = 8;
  SpeedSpec speeds;
  ElasticSpec schedule;
  uint64_t rows = 10000;
  uint32_t width = 3;     ///< columns of the synthetic relation
  uint32_t rounds = 6;    ///< partition rounds after the initial scatter
  uint64_t seed = 0x0e1a57ull;
  /// true: scatter/partition shares proportional to speed; false: the
  /// speed-oblivious uniform baseline (same slots, all weights 1).
  bool speed_aware = true;
};

/// What one pipeline run produced. `content_hash` digests every nonempty
/// shard's (slot, rows) in slot order — equal hashes mean bit-identical
/// distributed state on every occupied slot, regardless of how many idle
/// slots the schedule reserved.
struct ElasticRunResult {
  LoadTracker tracker{1};               ///< loads over the full slot space
  std::vector<size_t> final_shard_sizes;
  uint64_t final_rows = 0;
  uint64_t content_hash = 0;
  uint32_t epochs = 0;                  ///< memberships the run passed through
  uint64_t tuples_migrated = 0;
};

/// Runs the synthetic elastic workload: a weighted scatter of `rows`
/// seeded random tuples (round 0), then `rounds` hash-partition rounds on
/// rotating key columns, migrating state at every membership boundary of
/// the profile built from (base_p, speeds, schedule). Fully deterministic
/// in the config; with an empty schedule the migration machinery is never
/// entered, so the run is byte-identical to a fixed-p run by construction
/// of the code path — which the cluster_elastic experiment verifies by
/// digest against an independently-driven fixed-p pipeline.
ElasticRunResult RunElasticPipeline(const ElasticRunConfig& config);

}  // namespace cluster
}  // namespace coverpack

#endif  // COVERPACK_CLUSTER_ELASTIC_H_
