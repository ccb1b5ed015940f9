#include "workload/generators.h"

#include <string>

#include <gtest/gtest.h>

#include "query/catalog.h"
#include "query/properties.h"
#include "relation/operators.h"
#include "util/hash.h"
#include "util/thread_pool.h"
#include "workload/random_queries.h"

namespace coverpack {
namespace workload {
namespace {

TEST(GeneratorsTest, UniformRandomDistinctAndSized) {
  Rng rng(1);
  AttrSet attrs = AttrSet::FromIds({0, 1});
  Relation r = UniformRandom(attrs, 500, 100, &rng);
  EXPECT_EQ(r.size(), 500u);
  Relation copy = r;
  copy.Dedup();
  EXPECT_EQ(copy.size(), 500u);  // tuples are distinct
  for (size_t i = 0; i < r.size(); ++i) {
    EXPECT_LT(r.row(i)[0], 100u);
    EXPECT_LT(r.row(i)[1], 100u);
  }
}

TEST(GeneratorsTest, UniformRandomSaturatesSmallDomains) {
  Rng rng(2);
  // Only 4 possible tuples exist; asking for 100 yields at most 4.
  Relation r = UniformRandom(AttrSet::FromIds({0, 1}), 100, 2, &rng);
  EXPECT_LE(r.size(), 4u);
  EXPECT_GE(r.size(), 3u);
}

TEST(GeneratorsTest, MatchingIsDiagonal) {
  Relation r = Matching(AttrSet::FromIds({0, 3}), 10);
  EXPECT_EQ(r.size(), 10u);
  for (size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r.row(i)[0], r.row(i)[1]);
  }
  // Every value appears exactly once per attribute: perfectly skew-free.
  auto histogram = DegreeHistogram(r, 0);
  for (const auto& [value, count] : histogram) EXPECT_EQ(count, 1u);
}

TEST(GeneratorsTest, CartesianEnumeratesAll) {
  Relation r = Cartesian(AttrSet::FromIds({0, 1, 2}), {2, 3, 4});
  EXPECT_EQ(r.size(), 24u);
  Relation copy = r;
  copy.Dedup();
  EXPECT_EQ(copy.size(), 24u);
}

TEST(GeneratorsTest, ZipfSkewsTheDegreeDistribution) {
  Rng rng(3);
  AttrSet attrs = AttrSet::FromIds({0, 1});
  Relation skewed = Zipf(attrs, 800, 2000, 1.1, &rng);
  auto histogram = DegreeHistogram(skewed, 0);
  uint64_t max_degree = 0;
  for (const auto& [value, count] : histogram) max_degree = std::max(max_degree, count);
  // The hottest value is far above the average degree.
  EXPECT_GT(max_degree, 8 * skewed.size() / histogram.size());
}

TEST(GeneratorsTest, OneToOnePinsOtherAttributes) {
  AttrSet attrs = AttrSet::FromIds({0, 2, 5, 7});
  Relation r = OneToOne(attrs, 2, 7, 6);
  EXPECT_EQ(r.size(), 6u);
  for (size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r.At(i, 2), r.At(i, 7));
    EXPECT_EQ(r.At(i, 0), 0u);
    EXPECT_EQ(r.At(i, 5), 0u);
  }
}

TEST(GeneratorsTest, InstanceBuildersMatchSchemas) {
  Hypergraph q = catalog::BoxJoin();
  Rng rng(4);
  Instance instance = UniformInstance(q, 50, 10, &rng);
  instance.CheckAgainst(q);  // aborts on mismatch
  EXPECT_EQ(instance.MaxRelationSize(), 50u);
  Instance matching = MatchingInstance(q, 20);
  matching.CheckAgainst(q);
  EXPECT_EQ(matching.TotalSize(), 100u);
}

/// Order-sensitive hash of a relation: schema, row count and every value
/// in storage order.
uint64_t RowsHash(const Relation& r) {
  const uint64_t h = HashCombine(HashCombine(0, r.attrs().bits()), r.size());
  return HashCombine(h, HashSpan(r.raw().data(), r.raw().size()));
}

// The refill loop's draws, rows and row order, pinned at fixed seeds. One rng
// feeds every call in turn, so a change in how many base draws a generator
// consumes also moves the pins of the calls after it. The cases cover one
// round over several shards, many small rounds (Zipf(1.1) with n = domain),
// a domain too small for n (the attempt cap ends the loop), and an instance.
TEST(GeneratorsTest, OutputsArePinned) {
  const unsigned saved_threads = ThreadPool::GlobalThreads();
  for (unsigned threads : {1u, 4u}) {
    ThreadPool::SetGlobalThreads(threads);
    SCOPED_TRACE(std::to_string(threads) + " threads");
    Rng rng(0x5EED);
    EXPECT_EQ(RowsHash(UniformRandom(AttrSet::FromIds({0, 1}), 10000, 200, &rng)),
              0x52ff4a2907966442ull);
    EXPECT_EQ(RowsHash(UniformRandom(AttrSet::FromIds({0, 1}), 100, 2, &rng)),
              0x7307fac0e2788015ull);
    EXPECT_EQ(RowsHash(Zipf(AttrSet::FromIds({0, 1}), 1024, 1024, 1.1, &rng)),
              0x11be48158855d5d5ull);
    EXPECT_EQ(RowsHash(Zipf(AttrSet::FromIds({1, 3, 4}), 9000, 50, 0.5, &rng)),
              0xfa5c7cb882ff234bull);
    const Instance instance = ZipfInstance(catalog::Star(3), 2048, 2048, 1.1, &rng);
    uint64_t instance_hash = 0;
    for (size_t e = 0; e < instance.num_relations(); ++e) {
      instance_hash = HashCombine(instance_hash, RowsHash(instance[e]));
    }
    EXPECT_EQ(instance_hash, 0x61b69c0d5e8c0928ull);
    EXPECT_EQ(rng.Next(), 0x2a138f906e7c2803ull);
  }
  ThreadPool::SetGlobalThreads(saved_threads);
}

TEST(RandomQueriesTest, AcyclicByConstruction) {
  for (uint64_t seed = 100; seed < 160; ++seed) {
    Rng rng(seed);
    Hypergraph q = RandomAcyclicQuery(&rng);
    EXPECT_TRUE(IsAlphaAcyclic(q)) << q.ToString();
    EXPECT_GE(q.num_edges(), 2u);
    EXPECT_LE(q.num_edges(), 7u);
  }
}

TEST(RandomQueriesTest, DegreeTwoByConstruction) {
  for (uint64_t seed = 200; seed < 260; ++seed) {
    Rng rng(seed);
    Hypergraph q = RandomDegreeTwoQuery(&rng, 4, 6);
    EXPECT_TRUE(IsDegreeTwo(q)) << q.ToString();
    EXPECT_EQ(q.num_edges(), 4u);
    EXPECT_EQ(q.AllAttrs().size(), 6u);
  }
}

TEST(RandomQueriesTest, RespectsSizeOptions) {
  RandomAcyclicOptions options;
  options.min_edges = 5;
  options.max_edges = 5;
  options.max_fresh_attrs = 1;
  Rng rng(77);
  Hypergraph q = RandomAcyclicQuery(&rng, options);
  EXPECT_EQ(q.num_edges(), 5u);
}

}  // namespace
}  // namespace workload
}  // namespace coverpack
