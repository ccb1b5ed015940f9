/// \file cluster_test.cc
/// \brief Unit tests for the heterogeneous/elastic cluster subsystem:
/// speed/elastic spec parsing, profile epoch resolution, proportional
/// apportionment, speed-weighted routing, placement policy, state
/// migration, and the elastic pipeline's determinism and chaos contracts.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "cluster/cluster_profile.h"
#include "cluster/elastic.h"
#include "cluster/routing.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "mpc/exchange.h"
#include "query/attr_set.h"
#include "relation/relation.h"
#include "resilience/cost_model.h"
#include "resilience/fault_injector.h"
#include "resilience/fault_plan.h"
#include "util/ledger.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace coverpack {
namespace cluster {
namespace {


// ---------------------------------------------------------------- parsing

TEST(SpeedSpecTest, ParsesEveryKindAndRoundTrips) {
  for (const char* text :
       {"uniform", "halves:4", "geom:8", "seeded:7", "seeded:18446744073709551615", "1,2,4"}) {
    auto spec = ParseSpeedSpec(text);
    ASSERT_TRUE(spec.has_value()) << text;
    EXPECT_EQ(spec->ToString(), text);
  }
  EXPECT_EQ(ParseSpeedSpec("")->kind, SpeedSpec::Kind::kUniform);
  EXPECT_EQ(ParseSpeedSpec("halves:2.5")->param, 2.5);
}

TEST(SpeedSpecTest, RejectsMalformedSpecs) {
  for (const char* text :
       {"halves:", "halves:0", "halves:-2", "geom:0.5", "seeded:", "seeded:x", "1,,2",
        "1,-3", "0", "nonsense", "geom:", "halves:4x", "seeded:-1", "seeded:+5", "seeded: 5",
        "seeded:99999999999999999999"}) {
    EXPECT_FALSE(ParseSpeedSpec(text).has_value()) << text;
  }
}

TEST(ElasticSpecTest, ParsesAndCanonicalizesSchedules) {
  EXPECT_TRUE(ParseElasticSpec("none")->empty());
  auto spec = ParseElasticSpec("-1@3,+2@2");
  ASSERT_TRUE(spec.has_value());
  ASSERT_EQ(spec->events.size(), 2u);
  EXPECT_EQ(spec->events[0].round, 2u);
  EXPECT_EQ(spec->events[0].delta, 2);
  EXPECT_EQ(spec->events[1].round, 3u);
  EXPECT_EQ(spec->events[1].delta, -1);
  EXPECT_EQ(spec->ToString(), "+2@2,-1@3");
  // Same-round events merge; a zero net delta drops the event.
  EXPECT_TRUE(ParseElasticSpec("+2@4,-2@4")->empty());
  // The ends of the ranges parse exactly: +-INT32_MAX servers, round UINT32_MAX.
  EXPECT_EQ(ParseElasticSpec("2147483647@4294967295,-2147483647@1")->ToString(),
            "-2147483647@1,+2147483647@4294967295");
}

TEST(ElasticSpecTest, RejectsMalformedSchedules) {
  for (const char* text : {"+2@0", "+x@2", "+2@", "@", "+2", "+2@3,", "2147483647@1,1@1",
                           "1@4294967296", "5000000000@2", "-2147483648@1", "+@1", "1@-1"}) {
    EXPECT_FALSE(ParseElasticSpec(text).has_value()) << text;
  }
}

// --------------------------------------------------------- apportionment

TEST(ProportionalSharesTest, SumsExactlyAndFollowsWeights) {
  const auto shares = ProportionalShares({4.0, 1.0, 1.0, 1.0, 1.0}, 800);
  EXPECT_EQ(shares, (std::vector<uint64_t>{400, 100, 100, 100, 100}));
  uint64_t sum = 0;
  for (uint64_t s : ProportionalShares({1.1, 2.3, 0.7}, 1001)) sum += s;
  EXPECT_EQ(sum, 1001u);
}

TEST(ProportionalSharesTest, BreaksTiesTowardLowerIndex) {
  // 10 over 4 equal weights: remainders tie, so the two extra units go to
  // the lowest indices.
  EXPECT_EQ(ProportionalShares({1.0, 1.0, 1.0, 1.0}, 10),
            (std::vector<uint64_t>{3, 3, 2, 2}));
}

// ---------------------------------------------------------------- profile

TEST(ClusterProfileTest, ResolvesJoinAndLeaveEpochs) {
  const ClusterProfile profile(4, SpeedSpec{}, *ParseElasticSpec("+2@2,-1@3"));
  EXPECT_EQ(profile.num_slots(), 6u);
  EXPECT_EQ(profile.EpochForRound(0).active, (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(profile.EpochForRound(1).active, (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(profile.EpochForRound(2).active, (std::vector<uint32_t>{0, 1, 2, 3, 4, 5}));
  // Leaves drop the highest active slot.
  EXPECT_EQ(profile.EpochForRound(3).active, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(profile.EpochForRound(99).active, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
}

TEST(ClusterProfileTest, JoinsReuseLowestDepartedSlots) {
  const ClusterProfile profile(4, SpeedSpec{}, *ParseElasticSpec("-2@2,+1@3"));
  EXPECT_EQ(profile.EpochForRound(2).active, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(profile.EpochForRound(3).active, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(profile.num_slots(), 4u);
}

TEST(ClusterProfileTest, SpeedsAreContentKeyedAndPure) {
  const auto spec = *ParseSpeedSpec("seeded:42");
  const ClusterProfile a(8, spec, ElasticSpec{});
  const ClusterProfile b(8, spec, ElasticSpec{});
  for (uint32_t slot = 0; slot < 8; ++slot) {
    EXPECT_EQ(a.SpeedOfSlot(slot), b.SpeedOfSlot(slot));
    EXPECT_GE(a.SpeedOfSlot(slot), 1.0);
    EXPECT_LT(a.SpeedOfSlot(slot), 8.0);
  }
  EXPECT_EQ(a.ContentKey(), b.ContentKey());
  const ClusterProfile c(8, *ParseSpeedSpec("seeded:43"), ElasticSpec{});
  EXPECT_NE(a.ContentKey(), c.ContentKey());
  const ClusterProfile d(8, spec, *ParseElasticSpec("+1@2"));
  EXPECT_NE(a.ContentKey(), d.ContentKey());
}

TEST(ClusterProfileTest, NormalizedSpeedsHaveMeanOne) {
  const ClusterProfile profile(6, *ParseSpeedSpec("halves:4"), ElasticSpec{});
  const auto speeds = profile.NormalizedActiveSpeeds(profile.EpochForRound(0));
  double sum = 0.0;
  for (double s : speeds) sum += s;
  EXPECT_NEAR(sum, static_cast<double>(speeds.size()), 1e-9);
}

// ---------------------------------------------------------------- routing

Relation MakeRelation(uint32_t width, size_t rows, uint64_t seed) {
  Relation data(AttrSet::FirstN(width));
  Rng rng(seed);
  std::vector<Value> buffer;
  buffer.reserve(rows * width);
  for (size_t i = 0; i < rows * width; ++i) buffer.push_back(rng.Uniform(97));
  data.AppendRows(buffer.data(), rows);
  return data;
}

TEST(SpeedWeightedRouterTest, ScatterTargetsAreExactLargestRemainderShares) {
  const SpeedWeightedRouter router({0, 1, 2}, {2.0, 1.0, 1.0});
  EXPECT_EQ(router.ScatterTargets(100), (std::vector<uint64_t>{50, 25, 25}));
  uint64_t sum = 0;
  for (uint64_t t : router.ScatterTargets(101)) sum += t;
  EXPECT_EQ(sum, 101u);
}

TEST(SpeedWeightedRouterTest, WeightedScatterDeliversExactBlocks) {
  const Relation data = MakeRelation(2, 1000, 0x5ca77e);
  const SpeedWeightedRouter router({1, 3, 4}, {3.0, 1.0, 1.0});
  Cluster cluster(5);
  std::vector<Relation> shards(5, Relation(data.attrs()));
  mpc::ExchangePlan plan(5);
  AddWeightedScatter(&plan, data, router, /*record=*/true);
  const mpc::ExchangeStats stats = mpc::Exchange::Execute(
      &cluster, 0, plan, [&shards](size_t, uint32_t s) { return &shards[s]; },
      "test_scatter");
  EXPECT_EQ(stats.planned, 1000u);
  EXPECT_EQ(stats.delivered, 1000u);
  EXPECT_EQ(stats.charged, 1000u);
  EXPECT_EQ(shards[1].size(), 600u);
  EXPECT_EQ(shards[3].size(), 200u);
  EXPECT_EQ(shards[4].size(), 200u);
  EXPECT_EQ(shards[0].size(), 0u);
  EXPECT_EQ(shards[2].size(), 0u);
  // Scatter preserves row order within blocks: the first 600 rows land on
  // slot 1 in input order.
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(shards[1].row(i)[0], data.row(i)[0]);
  }
}

TEST(SpeedWeightedRouterTest, HashPartitionKeepsKeysTogether) {
  const Relation data = MakeRelation(2, 2000, 0x9a57);
  const SpeedWeightedRouter router({0, 1, 2, 3}, {4.0, 2.0, 1.0, 1.0});
  Cluster cluster(4);
  std::vector<Relation> shards(4, Relation(data.attrs()));
  mpc::ExchangePlan plan(4);
  AddWeightedHashPartition(&plan, data, {0}, /*salt=*/7, router, /*record=*/true);
  const mpc::ExchangeStats stats = mpc::Exchange::Execute(
      &cluster, 0, plan, [&shards](size_t, uint32_t s) { return &shards[s]; },
      "test_partition");
  EXPECT_EQ(stats.delivered, 2000u);
  std::map<Value, uint32_t> home;
  size_t delivered = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    delivered += shards[s].size();
    for (size_t i = 0; i < shards[s].size(); ++i) {
      const Value key = shards[s].row(i)[0];
      auto [it, inserted] = home.emplace(key, s);
      EXPECT_EQ(it->second, s) << "key " << key << " split across servers";
    }
  }
  EXPECT_EQ(delivered, 2000u);
}

TEST(SpeedWeightedRouterTest, PickByHashIsPureAndInRange) {
  const SpeedWeightedRouter router({2, 5, 9}, {1.0, 2.0, 4.0});
  for (uint64_t h : {0ull, 1ull, 0x123456789abcdefull, ~0ull}) {
    const uint32_t pick = router.PickByHash(h);
    EXPECT_EQ(pick, router.PickByHash(h));
    EXPECT_TRUE(pick == 2 || pick == 5 || pick == 9);
  }
}

// -------------------------------------------------------------- placement

TEST(PlacementTest, ChoosePlacementNeverLosesToIdentity) {
  LoadTracker tracker(4);
  tracker.Add(0, 0, 100);
  tracker.Add(0, 1, 100);
  tracker.Add(0, 2, 100);
  tracker.Add(0, 3, 100);
  tracker.Add(1, 0, 400);
  tracker.Add(1, 1, 10);

  for (const char* text : {"uniform", "halves:4", "geom:8", "seeded:3"}) {
    const ClusterProfile profile(4, *ParseSpeedSpec(text), ElasticSpec{});
    const auto speeds = profile.NormalizedActiveSpeeds(profile.EpochForRound(0));
    const PlacementChoice choice = ChoosePlacement(tracker, speeds);
    EXPECT_LE(choice.makespan, choice.identity_makespan + 1e-9) << text;
    // The identity fold must agree with the standalone-speed cost model.
    const resilience::MakespanBreakdown direct =
        resilience::SimulateMakespan(tracker, speeds);
    EXPECT_NEAR(direct.makespan, choice.identity_makespan,
                1e-9 * (1.0 + choice.identity_makespan))
        << text;
  }
}

TEST(PlacementTest, LptFoldsHeavyVirtualServersOntoFastMachines) {
  // One round, loads {90, 10, 10, 10}; speeds {3, 1, 1, 1}. Identity puts
  // the heavy virtual server on a unit-speed machine only if it sits at an
  // index != 0; LPT must put it on the speed-3 machine.
  LoadTracker tracker(4);
  tracker.Add(0, 0, 10);
  tracker.Add(0, 1, 90);
  tracker.Add(0, 2, 10);
  tracker.Add(0, 3, 10);
  const std::vector<double> speeds{3.0, 1.0, 1.0, 1.0};
  const PlacementChoice choice = ChoosePlacement(tracker, speeds);
  EXPECT_TRUE(choice.lpt_won);
  EXPECT_EQ(choice.assignment[1], 0u);  // heavy load -> fast machine
  EXPECT_LT(choice.makespan, choice.identity_makespan);
}

TEST(PlacementTest, UniformSpeedsKeepIdentityMakespan) {
  LoadTracker tracker(3);
  tracker.Add(0, 0, 5);
  tracker.Add(0, 1, 7);
  tracker.Add(0, 2, 11);
  const PlacementChoice choice = ChoosePlacement(tracker, {1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(choice.makespan, choice.identity_makespan);
}

TEST(CostModelTest, VectorOverloadMatchesUniformFaultPlan) {
  // Satellite: SimulateMakespan decoupled from the straggler schedule. An
  // all-ones vector and an empty FaultPlan are the same cost model.
  LoadTracker tracker(3);
  tracker.Add(0, 0, 40);
  tracker.Add(0, 2, 90);
  tracker.Add(1, 1, 25);
  const auto from_vector =
      resilience::SimulateMakespan(tracker, std::vector<double>{1.0, 1.0, 1.0});
  const auto from_plan = resilience::SimulateMakespan(tracker, resilience::FaultPlan());
  EXPECT_DOUBLE_EQ(from_vector.makespan, from_plan.makespan);
  EXPECT_DOUBLE_EQ(from_vector.uniform_makespan, from_plan.uniform_makespan);
  EXPECT_EQ(from_vector.rounds, from_plan.rounds);
  // Sub-unit speeds count as straggler bottlenecks, mirroring FaultPlan.
  const auto degraded =
      resilience::SimulateMakespan(tracker, std::vector<double>{1.0, 1.0, 0.5});
  EXPECT_DOUBLE_EQ(degraded.round_makespans[0], 180.0);
  EXPECT_EQ(degraded.straggler_bottlenecks, 1u);
}

// -------------------------------------------------------------- migration

DistRelation MakeDistState(const std::vector<uint32_t>& members,
                           const std::vector<size_t>& sizes, uint32_t num_slots) {
  DistRelation state(AttrSet::FirstN(1), num_slots);
  Rng rng(0x0dd5);
  for (size_t i = 0; i < members.size(); ++i) {
    std::vector<Value> buffer(sizes[i]);
    for (Value& v : buffer) v = rng.Next();
    state.shard(members[i]).AppendRows(buffer.data(), sizes[i]);
  }
  return state;
}

TEST(MigrationTest, JoinRebalancesToSpeedProportionalShares) {
  Cluster cluster(3);
  DistRelation state = MakeDistState({0, 1}, {600, 400}, 3);
  Ledger::Global().Reset();
  const MigrationResult result =
      MigrateToEpoch(&cluster, &state, {0, 1}, {0, 1, 2}, {2.0, 1.0, 1.0}, /*round=*/1);
  EXPECT_EQ(result.servers_joined, 1u);
  EXPECT_EQ(result.servers_left, 0u);
  EXPECT_EQ(state.shard(0).size(), 500u);
  EXPECT_EQ(state.shard(1).size(), 250u);
  EXPECT_EQ(state.shard(2).size(), 250u);
  EXPECT_EQ(state.TotalSize(), 1000u);
  // Moves: 100 off slot 0 + 150 off slot 1, all to the joiner.
  EXPECT_EQ(result.stats.planned, 250u);
  EXPECT_EQ(result.stats.delivered, 250u);
  EXPECT_EQ(result.tuples_to_joiners, 250u);
  EXPECT_EQ(result.tuples_from_leavers, 0u);
  // The migration is charged like any exchange.
  EXPECT_EQ(cluster.tracker().At(1, 2), 250u);
  // And ledgered with the rows it started from.
  const Metrics ledger = Ledger::Global().Read();
  EXPECT_EQ(ledger.CounterValue("cluster.checkpoints_captured"), 1u);
  EXPECT_EQ(ledger.CounterValue("cluster.checkpoint_tuples"), 1000u);
}

TEST(MigrationTest, LeaveDrainsDepartingServersCompletely) {
  Cluster cluster(3);
  DistRelation state = MakeDistState({0, 1, 2}, {300, 300, 400}, 3);
  const MigrationResult result =
      MigrateToEpoch(&cluster, &state, {0, 1, 2}, {0, 1}, {1.0, 1.0}, /*round=*/2);
  EXPECT_EQ(result.servers_left, 1u);
  EXPECT_EQ(state.shard(2).size(), 0u);
  EXPECT_EQ(state.shard(0).size(), 500u);
  EXPECT_EQ(state.shard(1).size(), 500u);
  EXPECT_EQ(result.tuples_from_leavers, 400u);
  EXPECT_EQ(result.stats.planned, 400u);
}

TEST(MigrationTest, UnchangedMembershipIsAStrictNoOp) {
  Cluster cluster(2);
  DistRelation state = MakeDistState({0, 1}, {999, 1}, 2);
  Ledger::Global().Reset();
  const MigrationResult result =
      MigrateToEpoch(&cluster, &state, {0, 1}, {0, 1}, {1.0, 1.0}, /*round=*/1);
  // Even though 999/1 is far from the 500/500 target, unchanged membership
  // must not move a row — that is what keeps no-event elastic runs
  // byte-identical to fixed-p runs.
  EXPECT_EQ(result.stats.planned, 0u);
  EXPECT_EQ(state.shard(0).size(), 999u);
  EXPECT_EQ(Ledger::Global().Read().CounterValue("cluster.checkpoints_captured"), 0u);
  EXPECT_EQ(cluster.tracker().MaxLoad(), 0u);
}

TEST(MigrationTest, RecoversBitIdenticallyUnderCrashStorm) {
  const auto run = [](bool faulted) {
    Cluster cluster(4);
    DistRelation state = MakeDistState({0, 1, 2, 3}, {4000, 100, 3000, 900}, 4);
    MigrationResult result;
    if (faulted) {
      resilience::FaultSpec spec;
      spec.seed = 0xbad;
      spec.crash_rate = 0.5;
      spec.drop_rate = 0.01;
      spec.duplicate_rate = 0.01;
      resilience::ScopedFaultInjection injection(spec);
      result = MigrateToEpoch(&cluster, &state, {0, 1, 2, 3}, {0, 1}, {1.0, 3.0},
                              /*round=*/1);
    } else {
      result = MigrateToEpoch(&cluster, &state, {0, 1, 2, 3}, {0, 1}, {1.0, 3.0},
                              /*round=*/1);
    }
    return std::make_tuple(state.shard(0).raw(), state.shard(1).raw(),
                           cluster.tracker(), result.stats.planned);
  };
  const auto clean = run(false);
  const auto stormy = run(true);
  EXPECT_EQ(std::get<0>(clean), std::get<0>(stormy));
  EXPECT_EQ(std::get<1>(clean), std::get<1>(stormy));
  EXPECT_TRUE(std::get<2>(clean) == std::get<2>(stormy));
  EXPECT_EQ(std::get<3>(clean), std::get<3>(stormy));
}

TEST(MigrationTest, SharedDestinationIsCheckpointedOnce) {
  // Three sources stream into one destination that already holds rows:
  // {900, 900, 100, 100} on {0,1,2,3} -> {0,1,2} at unit speeds targets
  // {667, 667, 666}, so slots 0, 1 and 3 send 233, 233 and 100 rows to
  // slot 2, which holds 100. Its pre-exchange rows count once.
  Cluster cluster(4);
  DistRelation state = MakeDistState({0, 1, 2, 3}, {900, 900, 100, 100}, 4);
  resilience::FaultSpec spec;
  spec.seed = 0xbad;
  spec.crash_rate = 0.5;
  Ledger::Global().Reset();
  MigrationResult result;
  {
    resilience::ScopedFaultInjection injection(spec);
    result = MigrateToEpoch(&cluster, &state, {0, 1, 2, 3}, {0, 1, 2}, {1.0, 1.0, 1.0},
                            /*round=*/1);
  }
  EXPECT_EQ(result.stats.planned, 566u);
  EXPECT_EQ(cluster.tracker().At(1, 2), 566u);
  EXPECT_EQ(state.shard(2).size(), 666u);
  const Metrics ledger = Ledger::Global().Read();
  EXPECT_EQ(ledger.CounterValue("recovery.checkpoints_captured"), 1u);
  EXPECT_EQ(ledger.CounterValue("recovery.checkpoint_tuples"), 100u);
  EXPECT_EQ(ledger.CounterValue("cluster.checkpoints_captured"), 1u);
  EXPECT_EQ(ledger.CounterValue("cluster.checkpoint_tuples"), 2000u);
}

// --------------------------------------------------------------- pipeline

class ElasticPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = ThreadPool::GlobalThreads(); }
  void TearDown() override { ThreadPool::SetGlobalThreads(saved_threads_); }

 private:
  unsigned saved_threads_ = 1;
};

TEST_F(ElasticPipelineTest, IsBitIdenticalAcrossThreadCounts) {
  ElasticRunConfig config;
  config.speeds = *ParseSpeedSpec("geom:8");
  config.schedule = *ParseElasticSpec("+2@2,-3@4");
  config.rows = 4000;
  ThreadPool::SetGlobalThreads(1);
  const ElasticRunResult serial = RunElasticPipeline(config);
  ThreadPool::SetGlobalThreads(4);
  const ElasticRunResult parallel = RunElasticPipeline(config);
  EXPECT_EQ(serial.content_hash, parallel.content_hash);
  EXPECT_EQ(serial.final_shard_sizes, parallel.final_shard_sizes);
  EXPECT_EQ(serial.tuples_migrated, parallel.tuples_migrated);
  EXPECT_TRUE(serial.tracker == parallel.tracker);
  EXPECT_EQ(serial.epochs, 3u);
  EXPECT_EQ(serial.final_rows, 4000u);
}

TEST_F(ElasticPipelineTest, RecoversBitIdenticallyUnderCrashStorm) {
  ElasticRunConfig config;
  config.speeds = *ParseSpeedSpec("halves:4");
  config.schedule = *ParseElasticSpec("+2@2,-2@4");
  config.rows = 4000;
  const ElasticRunResult clean = RunElasticPipeline(config);
  resilience::FaultSpec spec;
  spec.seed = 0x57011;
  spec.crash_rate = 0.25;
  spec.drop_rate = 0.005;
  spec.duplicate_rate = 0.005;
  resilience::ScopedFaultInjection injection(spec);
  const ElasticRunResult stormy = RunElasticPipeline(config);
  EXPECT_EQ(clean.content_hash, stormy.content_hash);
  EXPECT_EQ(clean.final_shard_sizes, stormy.final_shard_sizes);
  EXPECT_TRUE(clean.tracker == stormy.tracker);
}

TEST_F(ElasticPipelineTest, ConservesRowsOnEveryEpochBoundary) {
  ElasticRunConfig config;
  config.speeds = *ParseSpeedSpec("seeded:11");
  config.schedule = *ParseElasticSpec("+3@1,-4@3,+1@5");
  config.rows = 3000;
  Ledger::Global().Reset();
  const ElasticRunResult result = RunElasticPipeline(config);
  EXPECT_EQ(result.final_rows, 3000u);
  EXPECT_EQ(result.epochs, 4u);
  EXPECT_GT(result.tuples_migrated, 0u);
  EXPECT_EQ(Ledger::Global().Read().CounterValue("cluster.checkpoints_captured"), 3u);
  // Final membership = 8 + 3 - 4 + 1 = 8 active slots; every row on them.
  size_t occupied_rows = 0;
  for (size_t size : result.final_shard_sizes) occupied_rows += size;
  EXPECT_EQ(occupied_rows, 3000u);
}

}  // namespace
}  // namespace cluster
}  // namespace coverpack
