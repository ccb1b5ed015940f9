/// Property-based sweeps over randomly generated queries: the structural
/// theorems must hold on every shape, not just the catalog examples.
///
/// These tests carry the `fuzz` ctest label (their own cp_fuzz_tests
/// binary). COVERPACK_FUZZ_ROUNDS (default 1) repeats every property with
/// that many decorrelated seeds per test instance, so the sanitizer CI job
/// can sweep a much larger query space without changing test discovery.

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/acyclic_join.h"
#include "lp/covers.h"
#include "lp/packing_provable.h"
#include "query/catalog.h"
#include "query/decomposition.h"
#include "query/join_tree.h"
#include "query/properties.h"
#include "relation/oracle.h"
#include "workload/generators.h"
#include "workload/random_queries.h"

namespace coverpack {
namespace {

/// Number of decorrelated repetitions per test instance, from
/// COVERPACK_FUZZ_ROUNDS (>= 1; unparsable or absent means 1).
uint64_t FuzzRounds() {
  static const uint64_t rounds = [] {
    const char* env = std::getenv("COVERPACK_FUZZ_ROUNDS");
    if (env == nullptr) return uint64_t{1};
    char* end = nullptr;
    unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end == env || parsed == 0) return uint64_t{1};
    return static_cast<uint64_t>(parsed);
  }();
  return rounds;
}

/// The base seed of this test instance plus FuzzRounds()-1 decorrelated
/// follow-ups (golden-ratio stride keeps the follow-up streams disjoint
/// from the base Range(1, 41) seeds).
std::vector<uint64_t> FuzzSeeds(uint64_t base) {
  std::vector<uint64_t> seeds(FuzzRounds());
  for (uint64_t i = 0; i < seeds.size(); ++i) {
    seeds[i] = base + i * 0x9E3779B97F4A7C15ull;
  }
  return seeds;
}

class RandomAcyclicTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomAcyclicTest, StructuralTheoremsHold) {
  for (uint64_t seed : FuzzSeeds(GetParam())) {
    Rng rng(seed);
    Hypergraph q = workload::RandomAcyclicQuery(&rng);

    // Construction guarantees alpha-acyclicity.
    ASSERT_TRUE(IsAlphaAcyclic(q)) << q.ToString();
    auto tree = JoinTree::Build(q);
    ASSERT_TRUE(tree.has_value()) << q.ToString();

    // Lemma A.2: integral optimal edge cover; rho* integral.
    Rational rho = RhoStar(q);
    EXPECT_TRUE(rho.is_integer()) << q.ToString();
    EXPECT_EQ(Rational(MinimumIntegralEdgeCover(q).size), rho) << q.ToString();

    // Theorem 3 / 5: the S(E) family peaks at rho*.
    EXPECT_EQ(MaxSFamilySetSize(q), static_cast<uint32_t>(rho.num())) << q.ToString();

    // Residuals stay acyclic (Lemma A.1).
    AttrSet all = q.AllAttrs();
    AttrId first = all.First();
    Hypergraph residual = q.Residual(AttrSet::Single(first));
    if (residual.num_edges() > 0) {
      EXPECT_TRUE(IsAlphaAcyclic(residual)) << q.ToString();
    }
  }
}

TEST_P(RandomAcyclicTest, MpcRunMatchesOracle) {
  for (uint64_t seed : FuzzSeeds(GetParam())) {
    Rng rng(seed * 7919 + 13);
    Hypergraph q = workload::RandomAcyclicQuery(&rng);
    Instance instance = workload::UniformInstance(q, 40, 6, &rng);

    Relation expected = GenericJoin(q, instance);
    for (RunPolicy policy : {RunPolicy::kConservative, RunPolicy::kOptimal}) {
      AcyclicRunOptions options;
      options.policy = policy;
      options.collect = true;
      options.p = 8;
      AcyclicRunResult run = ComputeAcyclicJoin(q, instance, options);
      EXPECT_TRUE(run.results.SameContentAs(expected))
          << q.ToString() << " policy " << static_cast<int>(policy) << " got "
          << run.output_count << " want " << expected.size();
    }
  }
}

TEST_P(RandomAcyclicTest, CountingOracleAgrees) {
  for (uint64_t seed : FuzzSeeds(GetParam())) {
    Rng rng(seed * 104729 + 5);
    Hypergraph q = workload::RandomAcyclicQuery(&rng);
    Instance instance = workload::UniformInstance(q, 50, 5, &rng);
    auto tree = JoinTree::Build(q);
    ASSERT_TRUE(tree);
    EXPECT_EQ(AcyclicJoinCount(q, *tree, instance), GenericJoin(q, instance).size())
        << q.ToString();
  }
}

TEST_P(RandomAcyclicTest, SemiJoinReductionPreservesJoin) {
  for (uint64_t seed : FuzzSeeds(GetParam())) {
    Rng rng(seed * 31 + 3);
    Hypergraph q = workload::RandomAcyclicQuery(&rng);
    Instance instance = workload::UniformInstance(q, 50, 5, &rng);
    auto tree = JoinTree::Build(q);
    ASSERT_TRUE(tree);
    Instance reduced = SemiJoinReduce(q, *tree, instance);
    EXPECT_TRUE(GenericJoin(q, reduced).SameContentAs(GenericJoin(q, instance)))
        << q.ToString();
    for (uint32_t e = 0; e < q.num_edges(); ++e) {
      EXPECT_LE(reduced[e].size(), instance[e].size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAcyclicTest, ::testing::Range<uint64_t>(1, 41));

class RandomDegreeTwoTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomDegreeTwoTest, Lemma53Properties) {
  for (uint64_t seed : FuzzSeeds(GetParam())) {
    Rng rng(seed);
    uint32_t m = 3 + static_cast<uint32_t>(rng.Uniform(4));        // 3..6 relations
    uint32_t a = m + static_cast<uint32_t>(rng.Uniform(m));        // m..2m-1 attrs
    Hypergraph q = workload::RandomDegreeTwoQuery(&rng, m, a);
    ASSERT_TRUE(IsDegreeTwo(q));

    if (!q.IsReduced()) continue;  // Lemma 5.3 assumes reduced queries

    Rational rho = RhoStar(q);
    Rational tau = TauStar(q);
    // (1) tau* >= m/2 >= rho*; (2) tau* + rho* = m.
    EXPECT_GE(tau, Rational(m, 2)) << q.ToString();
    EXPECT_LE(rho, Rational(m, 2)) << q.ToString();
    EXPECT_EQ(tau + rho, Rational(m)) << q.ToString();

    // (3) half-integrality; (4) integrality without odd cycles.
    EdgeWeighting cover = FractionalEdgeCover(q);
    EdgeWeighting packing = FractionalEdgePacking(q);
    EXPECT_TRUE(IsHalfIntegral(cover.weights)) << q.ToString();
    EXPECT_TRUE(IsHalfIntegral(packing.weights)) << q.ToString();
    if (DegreeTwoHasNoOddCycle(q)) {
      EXPECT_TRUE(tau.is_integer()) << q.ToString();
      EXPECT_TRUE(rho.is_integer()) << q.ToString();
    }

    // Vertex-cover duality: total == tau*.
    EXPECT_EQ(FractionalVertexCover(q).total, tau) << q.ToString();
  }
}

TEST_P(RandomDegreeTwoTest, ProvabilityRequiresNoOddCycle) {
  for (uint64_t seed : FuzzSeeds(GetParam())) {
    Rng rng(seed * 7 + 1);
    uint32_t m = 3 + static_cast<uint32_t>(rng.Uniform(3));
    Hypergraph q = workload::RandomDegreeTwoQuery(&rng, m, m + 1);
    if (!q.IsReduced()) continue;
    PackingProvability result = AnalyzePackingProvable(q);
    if (result.provable) {
      EXPECT_TRUE(DegreeTwoHasNoOddCycle(q)) << q.ToString();
      // The witness's probabilistic edges must be pairwise vertex-disjoint.
      for (size_t i = 0; i < result.probabilistic.size(); ++i) {
        for (size_t j = i + 1; j < result.probabilistic.size(); ++j) {
          EXPECT_FALSE(q.edge(result.probabilistic[i])
                           .attrs.Intersects(q.edge(result.probabilistic[j]).attrs))
              << q.ToString();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDegreeTwoTest, ::testing::Range<uint64_t>(1, 41));

class RandomBergeAcyclicTest : public ::testing::TestWithParam<uint64_t> {};

/// Lemma A.3: for reduced berge-acyclic joins, tau* <= rho*. Random
/// acyclic queries with single shared attributes are berge-acyclic by
/// construction (the incidence graph stays a forest).
TEST_P(RandomBergeAcyclicTest, TauBoundedByRho) {
  for (uint64_t seed : FuzzSeeds(GetParam())) {
    Rng rng(seed * 6364136223846793005ull + 9);
    workload::RandomAcyclicOptions options;
    options.max_shared_attrs = 1;  // one shared attribute per tree edge
    Hypergraph q = workload::RandomAcyclicQuery(&rng, options);
    if (!IsBergeAcyclic(q)) continue;  // duplicate relations can collapse edges
    Hypergraph reduced = Reduce(q);
    if (reduced.num_edges() == 0) continue;
    EXPECT_LE(TauStar(reduced), RhoStar(reduced)) << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBergeAcyclicTest, ::testing::Range<uint64_t>(1, 41));

/// psi* by its definition (footnote 2): the max of tau*(Q_x) over every
/// attribute subset x, one LP each. The library counts private edges
/// instead; this sweep is its oracle.
Rational LpSweepPsi(const Hypergraph& q) {
  Rational best(0);
  for (SubsetIterator it(q.AllAttrs()); !it.Done(); it.Next()) {
    Hypergraph residual = q.Residual(it.Current());
    if (residual.num_edges() > 0) best = Rational::Max(best, TauStar(residual));
  }
  return best;
}

/// An arbitrary hypergraph: 1-9 attributes, 1-7 edges, each edge drawn
/// attribute by attribute with repeats. Edges may nest or coincide, and
/// attributes of the table may be left out of every edge.
Hypergraph RandomHypergraph(Rng* rng) {
  const uint32_t num_attrs = 1 + static_cast<uint32_t>(rng->Uniform(9));
  const uint32_t num_edges = 1 + static_cast<uint32_t>(rng->Uniform(7));
  Hypergraph::Builder builder;
  for (uint32_t a = 0; a < num_attrs; ++a) {
    builder.AddAttribute(std::string(1, static_cast<char>('A' + a)));
  }
  for (uint32_t e = 0; e < num_edges; ++e) {
    std::vector<AttrId> attrs(1 + rng->Uniform(num_attrs));
    for (AttrId& attr : attrs) attr = static_cast<AttrId>(rng->Uniform(num_attrs));
    builder.AddRelationByIds(std::string{'R', static_cast<char>('1' + e)}, attrs);
  }
  return builder.Build();
}

void ExpectPsiMatchesLpSweep(const Hypergraph& q) {
  const Rational psi = EdgeQuasiPackingNumber(q);
  EXPECT_EQ(psi, LpSweepPsi(q)) << q.ToString();
  EXPECT_TRUE(psi.is_integer()) << q.ToString();
  // psi* >= max(rho*, tau*) [19].
  EXPECT_GE(psi, RhoStar(q)) << q.ToString();
  EXPECT_GE(psi, TauStar(q)) << q.ToString();
}

TEST(QuasiPackingTest, MatchesLpSweepOnRoster) {
  for (const auto& entry : catalog::StandardRoster()) {
    SCOPED_TRACE(entry.name);
    ExpectPsiMatchesLpSweep(entry.query);
  }
}

class RandomQuasiPackingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomQuasiPackingTest, MatchesLpSweep) {
  for (uint64_t seed : FuzzSeeds(GetParam())) {
    Rng rng(seed * 2862933555777941757ull + 11);
    for (int i = 0; i < 2; ++i) {
      ExpectPsiMatchesLpSweep(workload::RandomAcyclicQuery(&rng));
      const uint32_t m = 3 + static_cast<uint32_t>(rng.Uniform(4));  // 3..6 relations
      ExpectPsiMatchesLpSweep(
          workload::RandomDegreeTwoQuery(&rng, m, m + static_cast<uint32_t>(rng.Uniform(m))));
    }
    for (int i = 0; i < 6; ++i) ExpectPsiMatchesLpSweep(RandomHypergraph(&rng));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQuasiPackingTest, ::testing::Range<uint64_t>(1, 41));

}  // namespace
}  // namespace coverpack
