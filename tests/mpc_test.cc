#include <gtest/gtest.h>

#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "mpc/primitives.h"
#include "query/catalog.h"
#include "relation/operators.h"
#include "relation/oracle.h"
#include "workload/generators.h"

namespace coverpack {
namespace {

TEST(LoadTrackerTest, AddAndMax) {
  LoadTracker tracker(4);
  tracker.Add(0, 1, 10);
  tracker.Add(0, 1, 5);
  tracker.Add(2, 3, 7);
  EXPECT_EQ(tracker.num_rounds(), 3u);
  EXPECT_EQ(tracker.At(0, 1), 15u);
  EXPECT_EQ(tracker.At(1, 0), 0u);
  EXPECT_EQ(tracker.MaxLoad(), 15u);
  EXPECT_EQ(tracker.MaxLoadOfRound(2), 7u);
  EXPECT_EQ(tracker.TotalCommunication(), 22u);
}

TEST(LoadTrackerTest, MergeChildAtOffsets) {
  LoadTracker parent(8);
  LoadTracker child(2);
  child.Add(0, 0, 3);
  child.Add(1, 1, 4);
  parent.Merge(child, /*server_offset=*/4, /*round_offset=*/2);
  EXPECT_EQ(parent.At(2, 4), 3u);
  EXPECT_EQ(parent.At(3, 5), 4u);
  EXPECT_EQ(parent.MaxLoad(), 4u);
}

TEST(LoadTrackerTest, MergeMappedReplicatesAcrossGrid) {
  // 2x3 grid: component with 2 logical servers mapped by s % 2.
  LoadTracker parent(6);
  LoadTracker child(2);
  child.Add(0, 0, 10);
  child.Add(0, 1, 20);
  parent.MergeMapped(child, 0, [](uint32_t s) { return s % 2; });
  EXPECT_EQ(parent.At(0, 0), 10u);
  EXPECT_EQ(parent.At(0, 1), 20u);
  EXPECT_EQ(parent.At(0, 4), 10u);
  EXPECT_EQ(parent.At(0, 5), 20u);
  EXPECT_EQ(parent.TotalCommunication(), 90u);
}

TEST(DistRelationTest, ScatterChargesReceives) {
  Cluster cluster(4);
  Relation data(AttrSet::Single(0));
  for (Value v = 0; v < 10; ++v) data.AppendRow({v});
  DistRelation dist = DistRelation::Scatter(&cluster, data, 0);
  EXPECT_EQ(dist.TotalSize(), 10u);
  EXPECT_EQ(cluster.tracker().TotalCommunication(), 10u);
  EXPECT_EQ(cluster.tracker().MaxLoad(), 3u);  // ceil(10/4)
  EXPECT_TRUE(dist.Gather().SameContentAs(data));
}

TEST(DistRelationTest, InitialPlacementIsFree) {
  Cluster cluster(4);
  Relation data(AttrSet::Single(0));
  for (Value v = 0; v < 10; ++v) data.AppendRow({v});
  DistRelation dist = DistRelation::InitialPlacement(cluster, data);
  EXPECT_EQ(dist.TotalSize(), 10u);
  EXPECT_EQ(cluster.tracker().TotalCommunication(), 0u);
}

TEST(PrimitivesTest, HashPartitionColocatesKeys) {
  Cluster cluster(8);
  Hypergraph q = catalog::Line3();
  Rng rng(7);
  Relation data = workload::UniformRandom(q.edge(0).attrs, 200, 20, &rng);
  DistRelation input = DistRelation::InitialPlacement(cluster, data);
  AttrId b = *q.FindAttribute("B");
  DistRelation output = mpc::HashPartition(&cluster, input, AttrSet::Single(b), 0);
  EXPECT_EQ(output.TotalSize(), 200u);
  // Every value of B lives on exactly one shard.
  std::unordered_map<Value, uint32_t> home;
  for (uint32_t s = 0; s < output.num_shards(); ++s) {
    const Relation& shard = output.shard(s);
    if (shard.empty()) continue;
    uint32_t col = shard.ColumnOf(b);
    for (size_t i = 0; i < shard.size(); ++i) {
      Value v = shard.row(i)[col];
      auto [it, inserted] = home.try_emplace(v, s);
      EXPECT_EQ(it->second, s) << "value " << v << " split across shards";
    }
  }
  EXPECT_EQ(cluster.tracker().TotalCommunication(), 200u);
}

TEST(PrimitivesTest, DegreeByValueMatchesSequentialHistogram) {
  Cluster cluster(4);
  Hypergraph q = catalog::Line3();
  Rng rng(13);
  Relation data = workload::Zipf(q.edge(0).attrs, 150, 30, 1.0, &rng);
  DistRelation input = DistRelation::InitialPlacement(cluster, data);
  AttrId a = *q.FindAttribute("A");
  uint32_t round = 0;
  auto degrees = mpc::DegreeByValue(&cluster, input, a, &round);
  EXPECT_EQ(round, 2u);
  auto expected = DegreeHistogram(data, a);
  ASSERT_EQ(degrees.size(), expected.size());
  for (const auto& [value, count] : expected) {
    EXPECT_EQ(degrees[value], count);
  }
}

TEST(PrimitivesTest, SemiJoinMpcMatchesSequential) {
  Cluster cluster(8);
  Hypergraph q = catalog::Line3();
  Rng rng(99);
  Relation left = workload::UniformRandom(q.edge(0).attrs, 100, 15, &rng);
  Relation right = workload::UniformRandom(q.edge(1).attrs, 100, 15, &rng);
  DistRelation dl = DistRelation::InitialPlacement(cluster, left);
  DistRelation dr = DistRelation::InitialPlacement(cluster, right);
  uint32_t round = 0;
  DistRelation result = mpc::SemiJoinMpc(&cluster, dl, dr, &round);
  EXPECT_EQ(round, 1u);
  EXPECT_TRUE(result.Gather().SameContentAs(SemiJoin(left, right)));
}

TEST(PrimitivesTest, ParallelPackRespectsGuarantees) {
  std::vector<uint64_t> weights{5, 3, 8, 2, 2, 7, 1, 9, 4, 6};
  uint64_t capacity = 10;
  std::vector<uint32_t> bin_of = mpc::ParallelPack(weights, capacity);
  ASSERT_EQ(bin_of.size(), weights.size());
  // First fit over 9, 8, 7, 6, 5, 4, 3, 2, 2, 1: bins {9, 8}, {7, 6},
  // {5, 4, 3} and {2, 2, 1}, numbered in the order they open.
  EXPECT_EQ(bin_of, (std::vector<uint32_t>{2, 2, 0, 3, 3, 1, 3, 0, 2, 1}));
  EXPECT_TRUE(mpc::ParallelPack({}, capacity).empty());
  std::unordered_map<uint32_t, uint64_t> bin_load;
  for (size_t i = 0; i < weights.size(); ++i) bin_load[bin_of[i]] += weights[i];
  uint32_t under_full = 0;
  for (const auto& [bin, load] : bin_load) {
    EXPECT_LE(load, 2 * capacity);
    if (load < capacity) ++under_full;
  }
  EXPECT_LE(under_full, 1u);  // all but one bin at least `capacity` full
}

TEST(PrimitivesTest, ChargeBroadcastHitsEveryServer) {
  Cluster cluster(5);
  mpc::ChargeBroadcast(&cluster, 42, 3);
  for (uint32_t s = 0; s < 5; ++s) EXPECT_EQ(cluster.tracker().At(3, s), 42u);
}

}  // namespace
}  // namespace coverpack
