/// \file exchange_test.cc
/// \brief Unit tests for the unified Exchange layer: planning, delivery,
/// charging, and what it records into the ledger's exchange.* namespace.

#include "mpc/exchange.h"

#include <gtest/gtest.h>

#include <vector>

#include "mpc/cluster.h"
#include "relation/relation.h"
#include "util/ledger.h"

namespace coverpack {
namespace mpc {
namespace {

Relation MakeSequential(uint32_t width, size_t rows) {
  Relation r(AttrSet::FirstN(width));
  std::vector<Value> row(width);
  for (size_t i = 0; i < rows; ++i) {
    for (uint32_t c = 0; c < width; ++c) row[c] = i * 100 + c;
    r.AppendRow(std::span<const Value>(row));
  }
  return r;
}

std::vector<Relation> MakeShards(const Relation& schema_of, uint32_t p) {
  return std::vector<Relation>(p, Relation(schema_of.attrs()));
}

TEST(ExchangeTest, RoundRobinPlanDeliversAndCharges) {
  const uint32_t p = 4;
  Relation data = MakeSequential(2, 10);
  Cluster cluster(p);
  std::vector<Relation> shards = MakeShards(data, p);
  ExchangePlan plan = Exchange::Plan(p, data, [p](size_t i, auto emit) { emit(i % p); });
  EXPECT_EQ(plan.total_planned(), 10u);
  EXPECT_EQ(plan.recorded_planned(), 10u);
  EXPECT_EQ(plan.PlannedReceive(0), 3u);  // rows 0, 4, 8
  EXPECT_EQ(plan.PlannedReceive(3), 2u);  // rows 3, 7
  EXPECT_EQ(plan.MaxPlannedReceive(), 3u);

  ExchangeStats stats = Exchange::Execute(
      &cluster, 0, plan, [&shards](size_t, uint32_t s) { return &shards[s]; }, "test");
  EXPECT_EQ(stats.planned, 10u);
  EXPECT_EQ(stats.delivered, 10u);
  EXPECT_EQ(stats.charged, 10u);
  EXPECT_EQ(stats.max_receive, 3u);
  // Delivery preserves row order within each destination.
  ASSERT_EQ(shards[1].size(), 3u);
  EXPECT_EQ(shards[1].row(0)[0], 100u);
  EXPECT_EQ(shards[1].row(1)[0], 500u);
  EXPECT_EQ(shards[1].row(2)[0], 900u);
  // Tracker charged exactly the per-server receive volume, once.
  for (uint32_t s = 0; s < p; ++s) {
    EXPECT_EQ(cluster.tracker().At(0, s), shards[s].size());
  }
  EXPECT_EQ(cluster.tracker().TotalCommunication(), 10u);
}

TEST(ExchangeTest, SharedDestinationIsReservedOnceForAllItsSources) {
  // Three sources of 1000 rows each deliver into one destination, as every
  // HashPartition does with one source per input shard. Reserving for all
  // 3000 incoming rows up front means the delivery never regrows it.
  const uint32_t p = 2;
  const uint32_t width = 2;
  std::vector<Relation> sources(3, MakeSequential(width, 1000));
  ExchangePlan plan(p);
  for (const Relation& source : sources) {
    plan.AddSource(source, /*record=*/true, [](size_t, auto emit) { emit(1); });
  }
  Relation dest(sources[0].attrs());
  Cluster cluster(p);
  Exchange::Execute(&cluster, 0, plan, [&dest](size_t, uint32_t) { return &dest; }, "test");
  EXPECT_EQ(dest.size(), 3000u);
  EXPECT_EQ(dest.raw().capacity(), 3000u * width);
}

TEST(ExchangeTest, ReplicatedRoutesDeliverToEveryEmittedServer) {
  const uint32_t p = 3;
  Relation data = MakeSequential(1, 5);
  Cluster cluster(p);
  std::vector<Relation> shards = MakeShards(data, p);
  // Full replication: every row to every server.
  ExchangePlan plan = Exchange::Plan(
      p, data,
      [p](size_t, auto emit) {
        for (uint32_t s = 0; s < p; ++s) emit(s);
      },
      /*record=*/true, /*emits_per_row_hint=*/p);
  ExchangeStats stats = Exchange::Execute(
      &cluster, 0, plan, [&shards](size_t, uint32_t s) { return &shards[s]; }, "test");
  EXPECT_EQ(stats.delivered, 15u);
  EXPECT_EQ(stats.charged, 15u);
  for (uint32_t s = 0; s < p; ++s) {
    EXPECT_TRUE(shards[s].SameContentAs(data));
    EXPECT_EQ(cluster.tracker().At(0, s), 5u);
  }
}

TEST(ExchangeTest, ChargeOnlyRoutingCountsWithoutDelivering) {
  const uint32_t p = 4;
  Relation data = MakeSequential(2, 9);
  Cluster cluster(p);
  ExchangePlan plan = Exchange::Plan(p, data, [p](size_t i, auto emit) { emit(i % p); },
                                     /*record=*/false);
  EXPECT_EQ(plan.total_planned(), 9u);
  EXPECT_EQ(plan.recorded_planned(), 0u);
  ExchangeStats stats = Exchange::Execute(&cluster, 2, plan, "test");
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.charged, 9u);
  EXPECT_EQ(cluster.tracker().At(2, 0), 3u);
  EXPECT_EQ(cluster.tracker().At(2, 3), 2u);
}

TEST(ExchangeTest, UniformChargesAccumulatePerCallCeilings) {
  const uint32_t p = 4;
  Cluster cluster(p);
  ExchangePlan plan(p);
  plan.PlanBroadcast(5);  // every server receives 5
  plan.PlanLinear(10);    // ceil(10/4) = 3 each
  plan.PlanLinear(3);     // ceil(3/4) = 1 each — per-call ceil, not pooled
  EXPECT_EQ(plan.PlannedReceive(2), 9u);
  EXPECT_EQ(plan.total_planned(), 36u);
  ExchangeStats stats = Exchange::Execute(&cluster, 0, plan, "test");
  EXPECT_EQ(stats.charged, 36u);
  for (uint32_t s = 0; s < p; ++s) EXPECT_EQ(cluster.tracker().At(0, s), 9u);
}

TEST(ExchangeTest, NullClusterDeliversWithoutCharging) {
  const uint32_t p = 2;
  Relation data = MakeSequential(1, 4);
  std::vector<Relation> shards = MakeShards(data, p);
  ExchangePlan plan = Exchange::Plan(p, data, [p](size_t i, auto emit) { emit(i % p); });
  ExchangeStats stats = Exchange::Execute(
      nullptr, 0, plan, [&shards](size_t, uint32_t s) { return &shards[s]; }, "test");
  EXPECT_EQ(stats.delivered, 4u);
  EXPECT_EQ(stats.charged, 0u);
  EXPECT_EQ(shards[0].size() + shards[1].size(), 4u);
}

TEST(ExchangeTest, PlanReceiveAccumulatesExplicitVolumes) {
  const uint32_t p = 3;
  Cluster cluster(p);
  ExchangePlan plan(p);
  plan.PlanReceive(0, 7);
  plan.PlanReceive(0, 2);
  plan.PlanReceive(2, 4);
  plan.PlanReceive(1, 0);  // zero amounts plan nothing
  EXPECT_EQ(plan.total_planned(), 13u);
  EXPECT_EQ(plan.MaxPlannedReceive(), 9u);
  ExchangeStats stats = Exchange::Execute(&cluster, 1, plan, "test");
  EXPECT_EQ(stats.charged, 13u);
  EXPECT_EQ(cluster.tracker().At(1, 0), 9u);
  EXPECT_EQ(cluster.tracker().At(1, 1), 0u);
  EXPECT_EQ(cluster.tracker().At(1, 2), 4u);
}

TEST(ExchangeTest, ZeroVolumePlanChargesNothingAndCreatesNoRound) {
  Cluster cluster(2);
  ExchangePlan plan(2);
  plan.PlanLinear(0);
  ExchangeStats stats = Exchange::Execute(&cluster, 0, plan, "test");
  EXPECT_EQ(stats.charged, 0u);
  // Skipped zero charges must not grow the round list.
  EXPECT_EQ(cluster.tracker().num_rounds(), 0u);
}

TEST(ExchangeTest, ZeroWidthRowsMoveThroughExchange) {
  const uint32_t p = 2;
  Relation nullary((AttrSet()));
  for (int i = 0; i < 5; ++i) nullary.AppendRow({});
  ASSERT_EQ(nullary.size(), 5u);
  Cluster cluster(p);
  std::vector<Relation> shards = MakeShards(nullary, p);
  ExchangePlan plan = Exchange::Plan(p, nullary, [p](size_t i, auto emit) { emit(i % p); });
  ExchangeStats stats = Exchange::Execute(
      &cluster, 0, plan, [&shards](size_t, uint32_t s) { return &shards[s]; }, "test");
  EXPECT_EQ(stats.delivered, 5u);
  EXPECT_EQ(shards[0].size(), 3u);
  EXPECT_EQ(shards[1].size(), 2u);
  EXPECT_EQ(cluster.tracker().At(0, 0), 3u);
  EXPECT_EQ(cluster.tracker().At(0, 1), 2u);
}

TEST(ExchangeTest, MultiSourceSinkKeyedBySourceIndex) {
  const uint32_t p = 2;
  Relation first = MakeSequential(1, 3);
  Relation second = MakeSequential(1, 4);
  Cluster cluster(p);
  std::vector<std::vector<Relation>> dest(2, MakeShards(first, p));
  ExchangePlan plan(p);
  size_t idx_first = plan.AddSource(first, true, [p](size_t i, auto emit) { emit(i % p); });
  size_t idx_second = plan.AddSource(second, true, [p](size_t i, auto emit) { emit(i % p); });
  EXPECT_EQ(idx_first, 0u);
  EXPECT_EQ(idx_second, 1u);
  ExchangeStats stats = Exchange::Execute(
      &cluster, 0, plan,
      [&dest](size_t source, uint32_t s) { return &dest[source][s]; }, "test");
  EXPECT_EQ(stats.delivered, 7u);
  EXPECT_EQ(dest[0][0].size() + dest[0][1].size(), 3u);
  EXPECT_EQ(dest[1][0].size() + dest[1][1].size(), 4u);
  // The per-server charge spans both sources.
  EXPECT_EQ(cluster.tracker().At(0, 0), 2u + 2u);
}

TEST(ExchangeTest, TelemetryAggregatesAcrossExchanges) {
  Ledger::Global().Reset();
  const uint32_t p = 2;
  Relation data = MakeSequential(1, 6);
  Cluster cluster(p);
  std::vector<Relation> shards = MakeShards(data, p);
  ExchangePlan plan = Exchange::Plan(p, data, [p](size_t i, auto emit) { emit(i % p); });
  Exchange::Execute(&cluster, 0, plan,
                    [&shards](size_t, uint32_t s) { return &shards[s]; }, "alpha");
  ExchangePlan broadcast(p);
  broadcast.PlanBroadcast(4);
  Exchange::Execute(&cluster, 1, broadcast, "beta");
  ExchangePlan empty(p);
  Exchange::Execute(&cluster, 2, empty, "beta");

  const Metrics ledger = Ledger::Global().Read("exchange.");
  EXPECT_EQ(ledger.CounterValue("exchange.count"), 3u);
  EXPECT_EQ(ledger.CounterValue("exchange.tuples_moved"), 6u + 8u);
  EXPECT_EQ(ledger.MaxValue("exchange.max_fanin"), 4u);
  EXPECT_EQ(ledger.CounterValue("exchange.alpha.tuples_moved"), 6u);
  EXPECT_EQ(ledger.CounterValue("exchange.beta.count"), 2u);
  EXPECT_EQ(ledger.Samples("exchange.tuples_per_exchange"),
            (std::vector<double>{6.0, 8.0, 0.0}));
  // Round-robin of 6 rows over 2 servers is perfectly balanced; broadcast
  // is too (every server gets the same volume): both skews are 1.0. The
  // empty exchange moved nothing and draws no skew sample.
  EXPECT_EQ(ledger.Samples("exchange.fanin_skew"), (std::vector<double>{1.0, 1.0}));
  EXPECT_EQ(ledger.counters.size(), 6u);

  Ledger::Global().Reset("exchange.");
  EXPECT_EQ(Ledger::Global().Read("exchange."), Metrics());
}

}  // namespace
}  // namespace mpc
}  // namespace coverpack
