#include "lp/covers.h"

#include <gtest/gtest.h>

#include "query/catalog.h"
#include "query/parser.h"

namespace coverpack {
namespace {

TEST(CoversTest, BoxJoinFigure2) {
  // Figure 2: rho* = 2 via {R1, R2}; tau* = 3 via {R3, R4, R5}.
  Hypergraph box = catalog::BoxJoin();
  EXPECT_EQ(RhoStar(box), Rational(2));
  EXPECT_EQ(TauStar(box), Rational(3));
}

TEST(CoversTest, TriangleIsHalfIntegral) {
  Hypergraph triangle = catalog::Triangle();
  EXPECT_EQ(RhoStar(triangle), Rational(3, 2));
  EXPECT_EQ(TauStar(triangle), Rational(3, 2));
  EdgeWeighting cover = FractionalEdgeCover(triangle);
  EXPECT_TRUE(IsHalfIntegral(cover.weights));
  EXPECT_FALSE(IsIntegral(cover.weights));
}

TEST(CoversTest, LoomisWhitney) {
  // LW(n) has rho* = tau* = n/(n-1) (footnote 3).
  EXPECT_EQ(RhoStar(catalog::LoomisWhitney(3)), Rational(3, 2));
  EXPECT_EQ(TauStar(catalog::LoomisWhitney(3)), Rational(3, 2));
  EXPECT_EQ(RhoStar(catalog::LoomisWhitney(4)), Rational(4, 3));
  EXPECT_EQ(TauStar(catalog::LoomisWhitney(4)), Rational(4, 3));
}

TEST(CoversTest, SemiJoinExampleSection13) {
  // R1(A) |><| R2(A,B) |><| R3(B): rho* = 1 via R2, tau* = psi* = 2.
  Hypergraph q = catalog::SemiJoinExample();
  EXPECT_EQ(RhoStar(q), Rational(1));
  EXPECT_EQ(TauStar(q), Rational(2));
  EXPECT_EQ(EdgeQuasiPackingNumber(q), Rational(2));
}

TEST(CoversTest, StarDualGap) {
  // Star-dual with k satellites: rho* = 1, tau* = psi* = k (Section 1.3).
  for (uint32_t k = 2; k <= 4; ++k) {
    Hypergraph q = catalog::StarDual(k);
    EXPECT_EQ(RhoStar(q), Rational(1)) << "k=" << k;
    EXPECT_EQ(TauStar(q), Rational(k)) << "k=" << k;
    EXPECT_EQ(EdgeQuasiPackingNumber(q), Rational(k)) << "k=" << k;
  }
}

TEST(CoversTest, StarCoverExceedsPacking) {
  // Star(4): every edge shares the hub attribute -> tau* = 1, rho* = 4.
  Hypergraph q = catalog::Star(4);
  EXPECT_EQ(RhoStar(q), Rational(4));
  EXPECT_EQ(TauStar(q), Rational(1));
}

TEST(CoversTest, Cycles) {
  EXPECT_EQ(RhoStar(catalog::Cycle(4)), Rational(2));
  EXPECT_EQ(TauStar(catalog::Cycle(4)), Rational(2));
  EXPECT_EQ(RhoStar(catalog::Cycle(5)), Rational(5, 2));
  EXPECT_EQ(TauStar(catalog::Cycle(5)), Rational(5, 2));
  EXPECT_EQ(RhoStar(catalog::Cycle(6)), Rational(3));
  EXPECT_EQ(TauStar(catalog::Cycle(6)), Rational(3));
}

TEST(CoversTest, Paths) {
  // path5 needs R1, R5 (endpoints) plus one middle relation: rho* = 3.
  EXPECT_EQ(RhoStar(catalog::Path(5)), Rational(3));
  EXPECT_EQ(TauStar(catalog::Path(5)), Rational(3));
  EXPECT_EQ(RhoStar(catalog::Path(4)), Rational(3));
}

TEST(CoversTest, Figure4QueryRhoStar) {
  EXPECT_EQ(RhoStar(catalog::Figure4Query()), Rational(6));
}

TEST(CoversTest, VertexCoverDualityEqualsTauStar) {
  // Vertex covering and edge packing are primal-dual (Section 5.2).
  for (const auto& entry : catalog::StandardRoster()) {
    VertexWeighting x = FractionalVertexCover(entry.query);
    EXPECT_EQ(x.total, TauStar(entry.query)) << entry.name;
  }
}

TEST(CoversTest, QuasiPackingDominatesCoverAndPacking) {
  // psi* >= max(rho*, tau*) [19] -- checked on the whole roster.
  for (const auto& entry : catalog::StandardRoster()) {
    Rational psi = EdgeQuasiPackingNumber(entry.query);
    EXPECT_GE(psi, RhoStar(entry.query)) << entry.name;
    EXPECT_GE(psi, TauStar(entry.query)) << entry.name;
  }
}

TEST(CoversTest, QuasiPackingPinnedValues) {
  // Each value was computed by the max-over-residuals LP sweep of footnote
  // 2 (one tau* LP per attribute subset).
  EXPECT_EQ(EdgeQuasiPackingNumber(catalog::Triangle()), Rational(2));
  EXPECT_EQ(EdgeQuasiPackingNumber(catalog::Cycle(5)), Rational(3));
  EXPECT_EQ(EdgeQuasiPackingNumber(catalog::Cycle(6)), Rational(4));
  EXPECT_EQ(EdgeQuasiPackingNumber(catalog::LoomisWhitney(4)), Rational(2));
  EXPECT_EQ(EdgeQuasiPackingNumber(catalog::Clique(4)), Rational(3));
  EXPECT_EQ(EdgeQuasiPackingNumber(catalog::BoxJoin()), Rational(3));
  EXPECT_EQ(EdgeQuasiPackingNumber(catalog::Path(5)), Rational(4));
  EXPECT_EQ(EdgeQuasiPackingNumber(catalog::Figure4Query()), Rational(6));
  EXPECT_EQ(EdgeQuasiPackingNumber(ParseQuery("R(A,B,C)")), Rational(1));
  // Nested edges: R1 sits inside R2.
  EXPECT_EQ(EdgeQuasiPackingNumber(ParseQuery("R1(A,B), R2(A,B,C), R3(C)")), Rational(2));
  // No LP reference here (the sweep takes over a second): on binary queries psi*
  // is |V| minus the domination number, and 6 attributes dominate a
  // 16-attribute path.
  EXPECT_EQ(EdgeQuasiPackingNumber(catalog::Path(15)), Rational(10));
}

TEST(CoversTest, CoverWeightsAreValidCovers) {
  for (const auto& entry : catalog::StandardRoster()) {
    EdgeWeighting cover = FractionalEdgeCover(entry.query);
    for (AttrId v : entry.query.AllAttrs().ToVector()) {
      Rational sum(0);
      for (uint32_t e = 0; e < entry.query.num_edges(); ++e) {
        if (entry.query.edge(e).attrs.Contains(v)) sum += cover.weights[e];
      }
      EXPECT_GE(sum, Rational(1)) << entry.name << " attr " << v;
    }
  }
}

TEST(CoversTest, PackingWeightsAreValidPackings) {
  for (const auto& entry : catalog::StandardRoster()) {
    EdgeWeighting packing = FractionalEdgePacking(entry.query);
    for (AttrId v : entry.query.AllAttrs().ToVector()) {
      Rational sum(0);
      for (uint32_t e = 0; e < entry.query.num_edges(); ++e) {
        if (entry.query.edge(e).attrs.Contains(v)) sum += packing.weights[e];
      }
      EXPECT_LE(sum, Rational(1)) << entry.name << " attr " << v;
    }
  }
}

TEST(CoversTest, DegreeTwoCoverPlusPackingEqualsEdges) {
  // Lemma 5.3 (2): tau* + rho* = |E| for reduced degree-two joins.
  for (const char* text :
       {"R1(A,B), R2(B,C), R3(C,A)", "R1(A,B,C), R2(D,E,F), R3(A,D), R4(B,E), R5(C,F)",
        "R1(X0,X1), R2(X1,X2), R3(X2,X3), R4(X3,X0)"}) {
    Hypergraph q = ParseQuery(text);
    EXPECT_EQ(RhoStar(q) + TauStar(q), Rational(q.num_edges())) << text;
  }
}

TEST(CoversTest, DegreeTwoHalfIntegrality) {
  // Lemma 5.3 (3): degree-two optimal cover/packing is half-integral;
  // (4): integral when there is no odd cycle.
  Hypergraph box = catalog::BoxJoin();
  EXPECT_TRUE(IsIntegral(FractionalEdgeCover(box).weights));
  EXPECT_TRUE(IsIntegral(FractionalEdgePacking(box).weights));
  Hypergraph c5 = catalog::Cycle(5);
  EXPECT_TRUE(IsHalfIntegral(FractionalEdgeCover(c5).weights));
  EXPECT_TRUE(IsHalfIntegral(FractionalEdgePacking(c5).weights));
}

TEST(CoversTest, RhoStarOfAttrsSubset) {
  Hypergraph box = catalog::BoxJoin();
  EXPECT_EQ(RhoStarOfAttrs(box, box.AllAttrs()), Rational(2));
  EXPECT_EQ(RhoStarOfAttrs(box, AttrSet()), Rational(0));
  // Covering only {A}: R1 or R3 with weight 1 suffices.
  AttrId a = *box.FindAttribute("A");
  EXPECT_EQ(RhoStarOfAttrs(box, AttrSet::Single(a)), Rational(1));
}

}  // namespace
}  // namespace coverpack
