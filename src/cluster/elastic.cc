#include "cluster/elastic.h"

#include <algorithm>
#include <utility>

#include "cluster/routing.h"
#include "util/hash.h"
#include "util/ledger.h"
#include "util/logging.h"
#include "util/random.h"

namespace coverpack {
namespace cluster {

namespace {

/// One contiguous slice of a surplus tail: rows [previous end, end) of the
/// source shard stream to `dest`.
struct Segment {
  uint64_t end = 0;
  uint32_t dest = 0;
};

/// Records one pipeline run (`migration` null) or one migration into the
/// ledger's cluster.* namespace, touching every key, so a pipeline without
/// migrations still reports the whole namespace. Everything recorded is a
/// planned (content-determined) volume, never a schedule-dependent one.
void RecordClusterEvent(const MigrationResult* migration, uint64_t checkpoint_tuples) {
  static const std::vector<double> kMigrationBounds = {1.0, 10.0, 100.0, 1000.0,
                                                       1e4, 1e5,  1e6,   1e7};
  const MigrationResult none;
  const MigrationResult& m = migration != nullptr ? *migration : none;
  const uint64_t migrated = migration != nullptr ? 1 : 0;
  Ledger::Global().Record(
      {Ledger::Add("cluster.runs", migration == nullptr ? 1 : 0),
       Ledger::Add("cluster.migrations", migrated),
       Ledger::Add("cluster.servers_joined", m.servers_joined),
       Ledger::Add("cluster.servers_left", m.servers_left),
       Ledger::Add("cluster.tuples_migrated", m.stats.planned),
       Ledger::Add("cluster.tuples_from_leavers", m.tuples_from_leavers),
       Ledger::Add("cluster.tuples_to_joiners", m.tuples_to_joiners),
       Ledger::Add("cluster.checkpoints_captured", migrated),
       Ledger::Add("cluster.checkpoint_tuples", checkpoint_tuples),
       Ledger::Max("cluster.max_single_migration", m.stats.max_receive),
       migration != nullptr ? Ledger::Sample("cluster.migration_tuples", kMigrationBounds,
                                             static_cast<double>(m.stats.planned))
                            : Ledger::Series("cluster.migration_tuples", kMigrationBounds)});
}

}  // namespace

MigrationResult MigrateToEpoch(Cluster* cluster, DistRelation* state,
                               const std::vector<uint32_t>& from,
                               const std::vector<uint32_t>& to,
                               const std::vector<double>& to_speeds, uint32_t round,
                               resilience::RoundCheckpointStore* checkpoints) {
  MigrationResult result;
  if (from == to) return result;
  CP_CHECK(cluster != nullptr);
  CP_CHECK(state != nullptr);
  CP_CHECK_EQ(to.size(), to_speeds.size());
  const uint32_t num_slots = state->num_shards();
  std::vector<bool> in_from(num_slots, false);
  std::vector<bool> in_to(num_slots, false);
  for (uint32_t slot : from) in_from[slot] = true;
  for (uint32_t slot : to) in_to[slot] = true;
  for (uint32_t slot : to) {
    if (!in_from[slot]) ++result.servers_joined;
  }
  uint64_t total = 0;
  for (uint32_t slot = 0; slot < num_slots; ++slot) {
    if (in_from[slot]) {
      total += state->shard(slot).size();
    } else {
      // State lives only on members; anything else is a routing bug.
      CP_CHECK_EQ(state->shard(slot).size(), 0u);
    }
    if (in_from[slot] && !in_to[slot]) ++result.servers_left;
  }

  // Post-migration targets: shares of the current rows proportional to the
  // new members' speeds.
  const std::vector<uint64_t> targets = ProportionalShares(to_speeds, total);
  std::vector<uint64_t> target_of(num_slots, 0);
  for (size_t i = 0; i < to.size(); ++i) target_of[to[i]] = targets[i];

  // Deficits in ascending destination order; surpluses stream into them in
  // ascending source order. Pure function of (shard sizes, targets).
  struct Deficit {
    uint32_t slot;
    uint64_t need;
  };
  std::vector<Deficit> deficits;
  for (size_t i = 0; i < to.size(); ++i) {
    const uint64_t current = state->shard(to[i]).size();
    if (targets[i] > current) deficits.push_back({to[i], targets[i] - current});
  }

  if (checkpoints != nullptr) checkpoints->NoteCapture(round, total);

  struct SurplusSource {
    uint32_t slot;
    uint64_t keep;
    std::vector<Segment> segments;
  };
  std::vector<SurplusSource> sources;
  size_t d = 0;
  for (uint32_t slot : from) {
    const uint64_t current = state->shard(slot).size();
    const uint64_t keep = std::min<uint64_t>(current, target_of[slot]);
    if (current <= keep) continue;
    SurplusSource source{slot, keep, {}};
    uint64_t row = keep;
    while (row < current) {
      CP_CHECK_LT(d, deficits.size());
      if (deficits[d].need == 0) {
        ++d;
        continue;
      }
      const uint64_t take = std::min(current - row, deficits[d].need);
      row += take;
      deficits[d].need -= take;
      source.segments.push_back({row, deficits[d].slot});
      if (!in_to[slot]) result.tuples_from_leavers += take;
      if (!in_from[deficits[d].slot]) result.tuples_to_joiners += take;
    }
    sources.push_back(std::move(source));
  }

  if (!sources.empty()) {
    // One rebalancing Exchange: recorded routes, charged in `round`,
    // audited at the choke point, delivered through any installed
    // interposer. Surplus tails truncate only after the clean delivery.
    mpc::ExchangePlan plan(num_slots);
    for (const SurplusSource& source : sources) {
      const uint64_t keep = source.keep;
      const std::vector<Segment> segments = source.segments;
      plan.AddSource(state->shard(source.slot), /*record=*/true,
                     [keep, segments](size_t i, auto emit) {
                       if (i < keep) return;
                       const auto it = std::upper_bound(
                           segments.begin(), segments.end(), static_cast<uint64_t>(i),
                           [](uint64_t row, const Segment& s) { return row < s.end; });
                       emit(it->dest);
                     });
    }
    result.stats = mpc::Exchange::Execute(
        cluster, round, plan,
        [state](size_t, uint32_t server) { return &state->shard(server); }, "migrate");
    for (const SurplusSource& source : sources) {
      state->shard(source.slot).Truncate(source.keep);
    }
  }

  CP_CHECK_EQ(state->TotalSize(), total);
  for (uint32_t slot = 0; slot < num_slots; ++slot) {
    if (!in_to[slot]) CP_CHECK_EQ(state->shard(slot).size(), 0u);
  }

  RecordClusterEvent(&result, total);
  return result;
}

namespace {

SpeedWeightedRouter RouterForEpoch(const ClusterProfile& profile, const Epoch& epoch,
                                   bool speed_aware) {
  std::vector<double> weights =
      speed_aware ? profile.ActiveSpeeds(epoch)
                  : std::vector<double>(epoch.active.size(), 1.0);
  return SpeedWeightedRouter(epoch.active, std::move(weights));
}

}  // namespace

ElasticRunResult RunElasticPipeline(const ElasticRunConfig& config) {
  CP_CHECK_GE(config.width, 1u);
  CP_CHECK_GE(config.rounds, 1u);
  const ClusterProfile profile(config.base_p, config.speeds, config.schedule);
  Cluster cluster(profile.num_slots());
  RecordClusterEvent(nullptr, 0);

  // Synthetic input: `rows` random tuples from a moderate key domain, so
  // partition rounds see both repeated and unique keys. One serial Rng —
  // the stream depends only on the seed.
  Relation data(AttrSet::FirstN(config.width));
  const uint64_t domain = 1 + config.rows / 2;
  Rng rng(SplitSeed(config.seed, 0));
  std::vector<Value> buffer;
  buffer.reserve(config.rows * config.width);
  for (uint64_t i = 0; i < config.rows; ++i) {
    for (uint32_t c = 0; c < config.width; ++c) buffer.push_back(rng.Uniform(domain));
  }
  data.AppendRows(buffer.data(), config.rows);

  DistRelation state(data.attrs(), profile.num_slots());
  const Epoch* current = &profile.EpochForRound(0);
  {
    // Round 0: the charged arrival scatter, shares proportional to speed
    // (or uniform for the oblivious baseline).
    const SpeedWeightedRouter router = RouterForEpoch(profile, *current, config.speed_aware);
    mpc::ExchangePlan plan(profile.num_slots());
    AddWeightedScatter(&plan, data, router, /*record=*/true);
    mpc::Exchange::Execute(
        &cluster, 0, plan,
        [&state](size_t, uint32_t server) { return &state.shard(server); },
        "cluster_scatter");
  }

  ElasticRunResult result;
  for (uint32_t round = 1; round <= config.rounds; ++round) {
    const Epoch& epoch = profile.EpochForRound(round);
    if (epoch.active != current->active) {
      std::vector<double> weights =
          config.speed_aware ? profile.ActiveSpeeds(epoch)
                             : std::vector<double>(epoch.active.size(), 1.0);
      const MigrationResult migration =
          MigrateToEpoch(&cluster, &state, current->active, epoch.active, weights, round,
                         &result.checkpoints);
      result.tuples_migrated += migration.stats.planned;
    }
    current = &epoch;

    const SpeedWeightedRouter router = RouterForEpoch(profile, epoch, config.speed_aware);
    const std::vector<uint32_t> key_columns{(round - 1) % config.width};
    DistRelation next(data.attrs(), profile.num_slots());
    mpc::ExchangePlan plan(profile.num_slots());
    for (uint32_t slot : epoch.active) {
      AddWeightedHashPartition(&plan, state.shard(slot), key_columns,
                               HashCombine(config.seed, round), router, /*record=*/true);
    }
    mpc::Exchange::Execute(
        &cluster, round, plan,
        [&next](size_t, uint32_t server) { return &next.shard(server); },
        "cluster_partition");
    state = std::move(next);
    CP_CHECK_EQ(state.TotalSize(), config.rows);
  }

  result.tracker = cluster.tracker();
  result.final_rows = state.TotalSize();
  uint64_t content = 0xe1a57ull;
  for (uint32_t slot = 0; slot < state.num_shards(); ++slot) {
    result.final_shard_sizes.push_back(state.shard(slot).size());
    // Empty shards contribute nothing: a slot the schedule reserved but
    // never activated cannot perturb the digest, so an unfired schedule
    // hashes identical to a fixed-p run.
    if (state.shard(slot).size() == 0) continue;
    content = HashCombine(content, slot);
    content = HashCombine(content, HashVector(state.shard(slot).raw()));
  }
  result.content_hash = content;
  for (const Epoch& epoch : profile.epochs()) {
    if (epoch.first_round <= config.rounds) ++result.epochs;
  }
  return result;
}

}  // namespace cluster
}  // namespace coverpack
