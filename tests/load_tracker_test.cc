/// Edge-case coverage for LoadTracker: offset merges, non-surjective
/// mapped merges, zero-amount adds, out-of-range reads — the accounting
/// corners where a silent bug would corrupt every bench downstream.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mpc/load_tracker.h"

namespace coverpack {
namespace {

TEST(LoadTrackerEdgeTest, MergeWithNonzeroRoundOffsetShiftsRounds) {
  LoadTracker parent(4);
  parent.Add(0, 0, 5);
  LoadTracker child(2);
  child.Add(0, 0, 3);
  child.Add(2, 1, 4);

  parent.Merge(child, /*server_offset=*/2, /*round_offset=*/3);

  // Child round r lands at parent round 3 + r; earlier rounds untouched.
  EXPECT_EQ(parent.At(0, 0), 5u);
  EXPECT_EQ(parent.At(3, 2), 3u);
  EXPECT_EQ(parent.At(5, 3), 4u);
  EXPECT_EQ(parent.num_rounds(), 6u);
  EXPECT_EQ(parent.TotalCommunication(), 12u);
}

TEST(LoadTrackerEdgeTest, MergeAtBothOffsetsPreservesTotals) {
  LoadTracker parent(8);
  parent.Add(1, 7, 11);
  LoadTracker child(3);
  child.Add(0, 0, 1);
  child.Add(0, 2, 2);
  child.Add(1, 1, 3);
  const uint64_t before = parent.TotalCommunication();

  parent.Merge(child, /*server_offset=*/5, /*round_offset=*/2);

  EXPECT_EQ(parent.TotalCommunication(), before + child.TotalCommunication());
  EXPECT_EQ(parent.At(2, 5), 1u);
  EXPECT_EQ(parent.At(2, 7), 2u);
  EXPECT_EQ(parent.At(3, 6), 3u);
}

TEST(LoadTrackerEdgeTest, MergeMappedNonSurjectiveSkipsUnmappedServers) {
  // Only physical servers 0 and 1 map into the child; everyone else maps
  // out of range and must receive nothing.
  LoadTracker parent(6);
  LoadTracker child(2);
  child.Add(0, 0, 10);
  child.Add(0, 1, 20);

  parent.MergeMapped(child, /*round_offset=*/0,
                     [](uint32_t s) { return s < 2 ? s : uint32_t{1000}; });

  EXPECT_EQ(parent.At(0, 0), 10u);
  EXPECT_EQ(parent.At(0, 1), 20u);
  for (uint32_t s = 2; s < 6; ++s) EXPECT_EQ(parent.At(0, s), 0u) << "server " << s;
  EXPECT_EQ(parent.TotalCommunication(), 30u);
}

TEST(LoadTrackerEdgeTest, MergeMappedUnmappedChildServerLosesItsColumn) {
  // The map only ever selects child server 0; child server 1's loads are
  // (by contract) not replicated anywhere.
  LoadTracker parent(3);
  LoadTracker child(2);
  child.Add(0, 0, 7);
  child.Add(0, 1, 99);

  parent.MergeMapped(child, /*round_offset=*/1, [](uint32_t) { return uint32_t{0}; });

  // Replication factor 3 for child column 0, zero for column 1.
  for (uint32_t s = 0; s < 3; ++s) EXPECT_EQ(parent.At(1, s), 7u);
  EXPECT_EQ(parent.TotalCommunication(), 21u);
}

TEST(LoadTrackerEdgeTest, MergeMappedWithRoundOffsetAlignsChildRounds) {
  LoadTracker parent(2);
  LoadTracker child(1);
  child.Add(0, 0, 4);
  child.Add(1, 0, 6);

  parent.MergeMapped(child, /*round_offset=*/2, [](uint32_t) { return uint32_t{0}; });

  EXPECT_EQ(parent.At(0, 0), 0u);
  EXPECT_EQ(parent.At(2, 0), 4u);
  EXPECT_EQ(parent.At(3, 1), 6u);
  EXPECT_EQ(parent.num_rounds(), 4u);
}

TEST(LoadTrackerEdgeTest, AddZeroAmountStillMaterializesTheRound) {
  LoadTracker tracker(2);
  tracker.Add(3, 1, 0);
  // Rounds grow on demand even for a zero charge; the cell itself is 0.
  EXPECT_EQ(tracker.num_rounds(), 4u);
  EXPECT_EQ(tracker.At(3, 1), 0u);
  EXPECT_EQ(tracker.MaxLoad(), 0u);
  EXPECT_EQ(tracker.TotalCommunication(), 0u);
}

TEST(LoadTrackerEdgeTest, AtOutOfRangeRoundIsZeroNotAbort) {
  LoadTracker tracker(2);
  tracker.Add(0, 0, 1);
  EXPECT_EQ(tracker.At(1, 0), 0u);
  EXPECT_EQ(tracker.At(1000000, 1), 0u);
  EXPECT_EQ(tracker.MaxLoadOfRound(17), 0u);
}

TEST(LoadTrackerEdgeTest, MergeEmptyChildIsNoOp) {
  LoadTracker parent(4);
  parent.Add(0, 2, 9);
  LoadTracker child(2);

  parent.Merge(child, 0, 0);
  parent.MergeMapped(child, 0, [](uint32_t s) { return s; });

  EXPECT_EQ(parent.num_rounds(), 1u);
  EXPECT_EQ(parent.TotalCommunication(), 9u);
}

TEST(LoadTrackerEdgeTest, EqualityComparesShapeAndEveryCell) {
  LoadTracker a(3);
  a.Add(0, 1, 5);
  a.Add(1, 2, 7);
  LoadTracker b(3);
  b.Add(1, 2, 7);
  b.Add(0, 1, 5);
  EXPECT_TRUE(a == b);  // equal, though charged in another order

  LoadTracker differing_cell = b;
  differing_cell.Add(1, 0, 1);
  EXPECT_FALSE(a == differing_cell);

  LoadTracker more_servers(4);
  more_servers.Add(0, 1, 5);
  more_servers.Add(1, 2, 7);
  EXPECT_FALSE(a == more_servers);

  LoadTracker extra_zero_round = b;
  extra_zero_round.Add(2, 0, 0);  // materializes an all-zero round
  ASSERT_EQ(extra_zero_round.num_rounds(), 3u);
  EXPECT_FALSE(a == extra_zero_round);
  EXPECT_TRUE(extra_zero_round != a);
}

TEST(LoadTrackerDeathTest, AddBeyondServerCountAborts) {
  LoadTracker tracker(2);
  EXPECT_DEATH(tracker.Add(0, 2, 1), "server < num_servers_");
}

TEST(LoadTrackerDeathTest, MergeChildLargerThanParentRangeAborts) {
  LoadTracker parent(4);
  LoadTracker child(3);
  child.Add(0, 0, 1);
  EXPECT_DEATH(parent.Merge(child, /*server_offset=*/2, 0), "check failed");
}

}  // namespace
}  // namespace coverpack
