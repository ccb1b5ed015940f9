/// Property-based sweeps over randomly generated queries: the structural
/// theorems must hold on every shape, not just the catalog examples.
///
/// These tests carry the `fuzz` ctest label (their own cp_fuzz_tests
/// binary). COVERPACK_FUZZ_ROUNDS (default 1) repeats every property with
/// that many decorrelated seeds per test instance, so the sanitizer CI job
/// can sweep a much larger query space without changing test discovery.

#include <algorithm>
#include <cstdlib>
#include <span>
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
#include "util/arena.h"
#include "util/logging.h"
#include "util/random.h"
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


// ---- GenericJoin vs the sort-per-node search it replaced -------------------
//
// SortingGenericJoin below is the previous GenericJoin, kept verbatim as the
// differential oracle of the trie-order, galloping search: it re-sorts every
// live slice at every search node. Both must return the same rows in the
// same order.

/// Backtracking state for GenericJoin over sorted row-id slices.
///
/// Each edge keeps one arena array of row ids; the live set at any depth is
/// a contiguous slice of it. At depth d (attribute A), every holder's slice
/// is sorted by its A-column, candidate values are walked off the smallest
/// holder's sorted slice in ascending order, and each holder's refinement
/// is the equal-value run located by a monotone cursor — O(L log L) per
/// level instead of the old O(candidates * L) rescans. Rows in a slice
/// agree on every already-bound attribute of their edge, so deeper sorts
/// permute only within equal keys and never break an ancestor's order;
/// backtracking restores slice bounds only. Candidates ascend, so the
/// output rows appear in the same lexicographic order as the historical
/// per-candidate-rescan implementation.
struct SearchState {
  struct Holder {
    EdgeId edge;
    uint32_t col;          // column of the level's attribute in this edge
    const Value* base;     // flat row storage of the edge's relation
    uint32_t width;
  };
  struct Level {
    std::vector<Holder> holders;
  };
  struct Slice {
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  std::vector<Level> levels;
  std::vector<uint32_t*> rows;  // per edge: arena row-id array
  std::vector<Slice> slice;     // per edge: live range of rows[e]
  std::vector<Value> assignment;
  Relation* output = nullptr;
};

void Recurse(SearchState* state, size_t depth) {
  if (depth == state->levels.size()) {
    state->output->AppendRow(std::span<const Value>(state->assignment));
    return;
  }
  const SearchState::Level& level = state->levels[depth];
  const size_t num_holders = level.holders.size();

  // Sort each holder's live slice by the level attribute's column.
  size_t lead = 0;
  for (size_t h = 0; h < num_holders; ++h) {
    const SearchState::Holder& holder = level.holders[h];
    SearchState::Slice s = state->slice[holder.edge];
    uint32_t* begin = state->rows[holder.edge] + s.begin;
    uint32_t* end = state->rows[holder.edge] + s.end;
    const Value* base = holder.base;
    const uint32_t width = holder.width;
    const uint32_t col = holder.col;
    std::sort(begin, end, [base, width, col](uint32_t a, uint32_t b) {
      return base[size_t{a} * width + col] < base[size_t{b} * width + col];
    });
    if (s.end - s.begin < state->slice[level.holders[lead].edge].end -
                              state->slice[level.holders[lead].edge].begin) {
      lead = h;
    }
  }

  // Walk candidate values off the lead holder's sorted slice; every
  // holder's cursor advances monotonically (candidates ascend).
  constexpr size_t kMaxEdges = 64;
  CP_DCHECK(num_holders <= kMaxEdges);
  uint32_t cursor[kMaxEdges];
  SearchState::Slice refined[kMaxEdges];
  SearchState::Slice saved[kMaxEdges];
  for (size_t h = 0; h < num_holders; ++h) {
    cursor[h] = state->slice[level.holders[h].edge].begin;
  }
  const SearchState::Holder& lead_holder = level.holders[lead];
  const SearchState::Slice lead_slice = state->slice[lead_holder.edge];
  uint32_t pos = lead_slice.begin;
  while (pos < lead_slice.end) {
    const uint32_t* lead_rows = state->rows[lead_holder.edge];
    Value value = lead_holder.base[size_t{lead_rows[pos]} * lead_holder.width +
                                   lead_holder.col];
    bool viable = true;
    for (size_t h = 0; h < num_holders; ++h) {
      const SearchState::Holder& holder = level.holders[h];
      const SearchState::Slice s = state->slice[holder.edge];
      const uint32_t* rows = state->rows[holder.edge];
      const Value* base = holder.base;
      const uint32_t width = holder.width;
      const uint32_t col = holder.col;
      uint32_t cur = cursor[h];
      while (cur < s.end && base[size_t{rows[cur]} * width + col] < value) ++cur;
      uint32_t run = cur;
      while (run < s.end && base[size_t{rows[run]} * width + col] == value) ++run;
      refined[h] = SearchState::Slice{cur, run};
      cursor[h] = run;
      if (cur == run) viable = false;
    }
    if (viable) {
      for (size_t h = 0; h < num_holders; ++h) {
        EdgeId e = level.holders[h].edge;
        saved[h] = state->slice[e];
        state->slice[e] = refined[h];
      }
      state->assignment[depth] = value;
      Recurse(state, depth + 1);
      for (size_t h = 0; h < num_holders; ++h) {
        state->slice[level.holders[h].edge] = saved[h];
      }
    }
    pos = cursor[lead];
  }
}

Relation SortingGenericJoin(const Hypergraph& query, const Instance& instance) {
  instance.CheckAgainst(query);
  Relation output(query.AllAttrs());
  const uint32_t m = query.num_edges();
  // An empty relation means an empty join.
  for (uint32_t e = 0; e < m; ++e) {
    if (instance[e].empty()) return output;
  }

  ArenaScope scope;
  SearchState state;
  std::vector<AttrId> attr_order = query.AllAttrs().ToVector();  // ascending
  state.levels.resize(attr_order.size());
  for (size_t d = 0; d < attr_order.size(); ++d) {
    AttrId attr = attr_order[d];
    EdgeSet holders = query.EdgesContaining(attr);
    CP_CHECK(!holders.empty());
    for (EdgeId e : holders.ToVector()) {
      const Relation& r = instance[e];
      state.levels[d].holders.push_back(SearchState::Holder{
          e, r.ColumnOf(attr), r.raw().data(), r.width()});
    }
  }
  state.rows.resize(m);
  state.slice.resize(m);
  for (uint32_t e = 0; e < m; ++e) {
    const size_t n = instance[e].size();
    CP_CHECK(n <= 0xFFFFFFFFu);
    state.rows[e] = scope.arena()->AllocateArray<uint32_t>(n);
    for (size_t i = 0; i < n; ++i) state.rows[e][i] = static_cast<uint32_t>(i);
    state.slice[e] = SearchState::Slice{0, static_cast<uint32_t>(n)};
  }
  state.assignment.resize(attr_order.size());
  state.output = &output;
  Recurse(&state, 0);
  return output;
}


void ExpectSameRowsInOrder(const Hypergraph& q, const Instance& instance) {
  const Relation expected = SortingGenericJoin(q, instance);
  const Relation actual = GenericJoin(q, instance);
  EXPECT_EQ(actual.attrs(), expected.attrs()) << q.ToString();
  EXPECT_EQ(actual.size(), expected.size()) << q.ToString();
  EXPECT_EQ(actual.raw(), expected.raw()) << q.ToString();
}

/// Uniform and skewed instances of `q` at a size and domain drawn from
/// `rng`: small domains give long equal-key runs, duplicate rows, and
/// non-empty outputs; large ones give sparse joins. The domain is capped so
/// that domain^attributes, and with it the output, stays below 2^16 rows.
void ExpectSameRowsOnRandomInstances(const Hypergraph& q, Rng* rng) {
  const size_t n = 1 + rng->Uniform(60);
  uint64_t domain = 1 + rng->Uniform(12);
  const auto fits = [&q](uint64_t d) {
    uint64_t assignments = 1;
    for (uint32_t a = 0; a < q.AllAttrs().size(); ++a) assignments *= d;
    return assignments <= (uint64_t{1} << 16);
  };
  while (domain > 1 && !fits(domain)) --domain;
  ExpectSameRowsInOrder(q, workload::UniformInstance(q, n, domain, rng));
  ExpectSameRowsInOrder(q, workload::ZipfInstance(q, n, domain, 1.1, rng));
}

TEST(GenericJoinDifferentialTest, MatchesSortingSearchOnRoster) {
  Rng rng(0x6E7A11);
  for (const auto& entry : catalog::StandardRoster()) {
    SCOPED_TRACE(entry.name);
    for (int i = 0; i < 4; ++i) ExpectSameRowsOnRandomInstances(entry.query, &rng);
  }
}

TEST(GenericJoinDifferentialTest, DuplicateRowsJoinOnce) {
  const Hypergraph q = catalog::Triangle();
  Instance instance(q);
  for (int copy = 0; copy < 3; ++copy) {
    instance[0].AppendRow({1, 2});
    instance[1].AppendRow({2, 3});
    instance[2].AppendRow({1, 3});
    instance[0].AppendRow({1, 4});
    instance[1].AppendRow({4, 3});
  }
  ExpectSameRowsInOrder(q, instance);
  EXPECT_EQ(GenericJoin(q, instance).size(), 2u);
}

TEST(GenericJoinDifferentialTest, EmptyRelationGivesEmptyJoin) {
  const Hypergraph q = catalog::Cycle(4);
  Rng rng(5);
  Instance instance = workload::UniformInstance(q, 30, 4, &rng);
  instance[2].Clear();
  ExpectSameRowsInOrder(q, instance);
  EXPECT_TRUE(GenericJoin(q, instance).empty());
}

TEST(GenericJoinDifferentialTest, EdgelessQueryYieldsOneZeroWidthRow) {
  // The builder rejects attribute-less relations, so the only zero-width
  // join is the edgeless query: no constraint, one empty tuple.
  const Hypergraph q = Hypergraph::Builder().Build();
  const Instance instance(q);
  ExpectSameRowsInOrder(q, instance);
  const Relation joined = GenericJoin(q, instance);
  EXPECT_EQ(joined.width(), 0u);
  EXPECT_EQ(joined.size(), 1u);
}

TEST(GenericJoinDifferentialTest, SingleValueColumns) {
  // Every relation holds one value in its first column: each level's
  // intersection is a single run covering the whole slice.
  const Hypergraph q = catalog::LoomisWhitney(4);
  Rng rng(11);
  Instance instance = workload::UniformInstance(q, 200, 6, &rng);
  for (EdgeId e = 0; e < q.num_edges(); ++e) {
    Relation pinned(instance[e].attrs());
    for (size_t i = 0; i < instance[e].size(); ++i) {
      std::vector<Value> row(instance[e].row(i).begin(), instance[e].row(i).end());
      row[0] = 3;
      pinned.AppendRow(std::span<const Value>(row));
    }
    instance[e] = std::move(pinned);
  }
  ExpectSameRowsInOrder(q, instance);
  EXPECT_FALSE(GenericJoin(q, instance).empty());
}

TEST(GenericJoinDifferentialTest, GallopsAcrossALongEqualKeyRun) {
  // R1(A,B) holds one A value on 2^16 + 5 rows, so finding that run's end
  // takes 16 doubling steps; R2(B,C) and R3(A,C) keep the output small.
  const Hypergraph q = catalog::Triangle();
  Instance instance(q);
  constexpr Value kRun = (Value{1} << 16) + 5;
  for (Value b = 0; b < kRun; ++b) instance[0].AppendRow({7, b});
  instance[0].AppendRow({8, 1});
  for (Value b = 0; b < kRun; b += 4099) instance[1].AppendRow({b, b % 3});
  instance[1].AppendRow({kRun - 1, 1});
  for (Value c = 0; c < 3; ++c) instance[2].AppendRow({7, c});
  instance[2].AppendRow({8, 0});
  ExpectSameRowsInOrder(q, instance);
  EXPECT_EQ(GenericJoin(q, instance).size(), 17u);
}

class RandomGenericJoinTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomGenericJoinTest, MatchesSortingSearch) {
  for (uint64_t seed : FuzzSeeds(GetParam())) {
    Rng rng(seed * 0x9E3779B1ull + 17);
    const uint32_t m = 3 + static_cast<uint32_t>(rng.Uniform(4));  // 3..6 relations
    ExpectSameRowsOnRandomInstances(
        workload::RandomDegreeTwoQuery(&rng, m, m + static_cast<uint32_t>(rng.Uniform(m))),
        &rng);
    for (int i = 0; i < 3; ++i) ExpectSameRowsOnRandomInstances(RandomHypergraph(&rng), &rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGenericJoinTest, ::testing::Range<uint64_t>(1, 41));

}  // namespace
}  // namespace coverpack
