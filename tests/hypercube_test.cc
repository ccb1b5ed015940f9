#include "mpc/hypercube.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "lp/covers.h"
#include "mpc/cluster.h"
#include "query/catalog.h"
#include "query/parser.h"
#include "relation/oracle.h"
#include "util/ledger.h"
#include "util/thread_pool.h"
#include "workload/generators.h"

namespace coverpack {
namespace {

TEST(SharesTest, OptimalObjectiveIsInverseTauStar) {
  // The share LP's optimum equals 1/tau* by duality.
  for (const auto& entry : catalog::StandardRoster()) {
    mpc::ShareVector shares = mpc::OptimizeShares(entry.query, 64);
    EXPECT_EQ(shares.objective, TauStar(entry.query).Inverse()) << entry.name;
    EXPECT_LE(shares.grid_size, 64u) << entry.name;
  }
}

TEST(SharesTest, TriangleSharesSplitEvenly) {
  mpc::ShareVector shares = mpc::OptimizeShares(catalog::Triangle(), 64);
  // y = (1/3, 1/3, 1/3) -> shares 64^(1/3) = 4 each.
  EXPECT_EQ(shares.shares, (std::vector<uint32_t>{4, 4, 4}));
  EXPECT_EQ(shares.grid_size, 64u);
}

TEST(SharesTest, UniformSharesOverSubset) {
  Hypergraph q = catalog::Triangle();
  mpc::ShareVector shares = mpc::UniformShares(q, q.AllAttrs(), 27);
  EXPECT_EQ(shares.shares, (std::vector<uint32_t>{3, 3, 3}));
  EXPECT_EQ(shares.grid_size, 27u);
}

class HypercubeCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint32_t, uint64_t>> {};

/// HyperCube must emit exactly the oracle's join results, for any query
/// shape, server count, and seed.
TEST_P(HypercubeCorrectnessTest, MatchesOracle) {
  auto [text, p, seed] = GetParam();
  Hypergraph q = ParseQuery(text);
  Rng rng(seed);
  Instance instance = workload::UniformInstance(q, 80, 10, &rng);
  Cluster cluster(p);
  mpc::ShareVector shares = mpc::OptimizeShares(q, p);
  mpc::HypercubeResult result =
      mpc::HypercubeJoin(&cluster, q, instance, shares, 0, /*collect=*/true);
  Relation expected = GenericJoin(q, instance);
  EXPECT_EQ(result.output_count, expected.size()) << text;
  EXPECT_TRUE(result.results.Gather().SameContentAs(expected)) << text;
  EXPECT_EQ(result.max_receive_load, cluster.tracker().MaxLoad());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HypercubeCorrectnessTest,
    ::testing::Combine(::testing::Values("R1(A,B), R2(B,C), R3(C,A)",
                                         "R1(A,B), R2(B,C), R3(C,D)",
                                         "R1(A,B,C), R2(D,E,F), R3(A,D), R4(B,E), R5(C,F)",
                                         "R1(A,B), R2(A,C), R3(A,D)"),
                       ::testing::Values(4u, 16u, 64u), ::testing::Values(3u, 17u)));

TEST(HypercubeTest, NoDuplicateEmissions) {
  // Each join result materializes on exactly one grid cell.
  Hypergraph q = catalog::Triangle();
  Rng rng(5);
  Instance instance = workload::UniformInstance(q, 60, 6, &rng);
  Cluster cluster(27);
  mpc::ShareVector shares = mpc::UniformShares(q, q.AllAttrs(), 27);
  mpc::HypercubeResult result =
      mpc::HypercubeJoin(&cluster, q, instance, shares, 0, /*collect=*/true);
  Relation gathered = result.results.Gather();
  size_t before = gathered.size();
  gathered.Dedup();
  EXPECT_EQ(gathered.size(), before);
}

TEST(HypercubeTest, MatchingInstanceLoadNearTheory) {
  // On a matching (skew-free) database the load should be close to
  // N / p^(1/tau*); certainly within a small constant of it.
  Hypergraph q = catalog::Triangle();
  uint64_t n = 4096;
  Instance instance = workload::MatchingInstance(q, n);
  uint32_t p = 64;
  Cluster cluster(p);
  mpc::ShareVector shares = mpc::OptimizeShares(q, p);
  mpc::HypercubeResult result =
      mpc::HypercubeJoin(&cluster, q, instance, shares, 0, /*collect=*/false);
  // tau* = 3/2 -> p^(2/3) = 16; theory load = 3 relations * N/16 per cell.
  double theory = 3.0 * static_cast<double>(n) / 16.0;
  EXPECT_LT(static_cast<double>(result.max_receive_load), 2.5 * theory);
  EXPECT_GT(static_cast<double>(result.max_receive_load), 0.3 * theory);
}

TEST(HypercubeTest, SkewDegradesLoad) {
  // A heavy-hitter instance forces one server to receive a constant
  // fraction of a relation: the weakness the multi-round algorithm fixes.
  Hypergraph q = catalog::SemiJoinExample();  // R1(A), R2(A,B), R3(B)
  uint64_t n = 2000;
  Instance skewed(q);
  skewed[0].AppendRow({0});
  for (Value v = 0; v < n; ++v) skewed[1].AppendRow({0, v});  // A=0 heavy
  for (Value v = 0; v < n; ++v) skewed[2].AppendRow({v});
  uint32_t p = 16;
  Cluster cluster(p);
  mpc::ShareVector shares = mpc::OptimizeShares(q, p);
  mpc::HypercubeResult result =
      mpc::HypercubeJoin(&cluster, q, skewed, shares, 0, /*collect=*/false);
  // All of R2 hashes to one coordinate of the A dimension.
  EXPECT_GE(result.max_receive_load, n / 4);
}

TEST(HypercubeTest, ChargeOnlyChargesWhatCollectingDelivers) {
  // Charge-only routing counts rows per bound cell instead of enumerating
  // replicas; it must still charge every grid cell what the collecting run
  // delivers to it and record the same exchange.* values. Every relation
  // spans more than one kExchangeRouteGrain shard.
  struct Case {
    std::string name;
    Hypergraph query;
    Instance instance;
    mpc::ShareVector shares;
    uint32_t p;
  };
  std::vector<Case> cases;
  {
    // Shares 4,4,4: every relation has one free dimension.
    Hypergraph q = catalog::Triangle();
    Rng rng(31);
    cases.push_back({"triangle_free_dims", q, workload::UniformInstance(q, 2500, 300, &rng),
                     mpc::OptimizeShares(q, 64), 64});
  }
  {
    // R1 spans every attribute (free_combos = 1); the 27-cell grid is
    // smaller than the 64-server cluster.
    Hypergraph q = ParseQuery("R1(A,B,C), R2(A,B), R3(B,C)");
    Rng rng(32);
    cases.push_back({"spanning_small_grid", q, workload::UniformInstance(q, 2500, 40, &rng),
                     mpc::UniformShares(q, q.AllAttrs(), 27), 64});
  }
  {
    // Shares on A and C only: B and D keep share 1, R2(B,C) has A free.
    Hypergraph q = catalog::Line3();
    AttrSet sharded = AttrSet::Single(*q.FindAttribute("A"));
    sharded = sharded.Union(AttrSet::Single(*q.FindAttribute("C")));
    Rng rng(33);
    cases.push_back({"unit_shares", q, workload::UniformInstance(q, 2500, 100, &rng),
                     mpc::UniformShares(q, sharded, 16), 16});
  }

  const unsigned saved_threads = ThreadPool::GlobalThreads();
  for (unsigned threads : {1u, 4u}) {
    ThreadPool::SetGlobalThreads(threads);
    for (const Case& c : cases) {
      SCOPED_TRACE(c.name + " at " + std::to_string(threads) + " threads");
      auto run = [&](bool collect) {
        Ledger::Global().Reset("exchange.");
        Cluster cluster(c.p);
        mpc::HypercubeJoin(&cluster, c.query, c.instance, c.shares, 0, collect);
        return std::make_pair(cluster.tracker(), Ledger::Global().Read("exchange."));
      };
      const auto [collected_tracker, collected_ledger] = run(true);
      const auto [charged_tracker, charged_ledger] = run(false);
      EXPECT_EQ(charged_tracker, collected_tracker);
      EXPECT_EQ(charged_ledger, collected_ledger);
      EXPECT_GT(charged_ledger.CounterValue("exchange.hypercube.tuples_moved"), 0u);
    }
  }
  ThreadPool::SetGlobalThreads(saved_threads);
}

}  // namespace
}  // namespace coverpack
