#include "query/hypergraph.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "query/catalog.h"
#include "query/parser.h"

namespace coverpack {
namespace {

TEST(AttrSetTest, BasicOperations) {
  AttrSet s;
  EXPECT_TRUE(s.empty());
  s.Insert(3);
  s.Insert(7);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_FALSE(s.Contains(4));
  s.Remove(3);
  EXPECT_FALSE(s.Contains(3));
  EXPECT_EQ(s.First(), 7u);
}

TEST(AttrSetTest, SetAlgebra) {
  AttrSet a = AttrSet::FromIds({0, 1, 2});
  AttrSet b = AttrSet::FromIds({2, 3});
  EXPECT_EQ(a.Union(b), AttrSet::FromIds({0, 1, 2, 3}));
  EXPECT_EQ(a.Intersect(b), AttrSet::Single(2));
  EXPECT_EQ(a.Minus(b), AttrSet::FromIds({0, 1}));
  EXPECT_TRUE(AttrSet::FromIds({0, 1}).IsSubsetOf(a));
  EXPECT_FALSE(a.IsSubsetOf(b));
  EXPECT_TRUE(a.Intersects(b));
}

TEST(AttrSetTest, SubsetIteratorEnumeratesPowerSet) {
  AttrSet universe = AttrSet::FromIds({1, 4, 6});
  int count = 0;
  bool saw_empty = false;
  bool saw_full = false;
  for (SubsetIterator it(universe); !it.Done(); it.Next()) {
    ++count;
    if (it.Current().empty()) saw_empty = true;
    if (it.Current() == universe) saw_full = true;
    EXPECT_TRUE(it.Current().IsSubsetOf(universe));
  }
  EXPECT_EQ(count, 8);
  EXPECT_TRUE(saw_empty);
  EXPECT_TRUE(saw_full);
}

TEST(ParserTest, ParsesBoxJoin) {
  Hypergraph q = ParseQuery("R1(A,B,C), R2(D,E,F), R3(A,D), R4(B,E), R5(C,F)");
  EXPECT_EQ(q.num_edges(), 5u);
  EXPECT_EQ(q.num_attrs(), 6u);
  EXPECT_EQ(q.edge(0).name, "R1");
  EXPECT_EQ(q.edge(0).attrs.size(), 3u);
  ASSERT_TRUE(q.FindAttribute("D").has_value());
  EXPECT_TRUE(q.edge(2).attrs.Contains(*q.FindAttribute("D")));
}

/// "R1(X0,X1), ..., Rn(X{n-1},Xn)": n relations over n + 1 attributes.
std::string PathText(int n) {
  std::string text;
  for (int i = 1; i <= n; ++i) {
    const std::string k = std::to_string(i);
    text += (i > 1 ? ", R" : "R") + k + "(X" + std::to_string(i - 1) + ",X" + k + ")";
  }
  return text;
}

/// "R1(A), ..., Rn(A)": n relations over one attribute.
std::string SameAttributeText(int n) {
  std::string text;
  for (int i = 1; i <= n; ++i) text += (i > 1 ? ", R" : "R") + std::to_string(i) + "(A)";
  return text;
}

TEST(ParserTest, RejectsMalformedQueriesWithAMessage) {
  const struct {
    std::string text;
    std::string message;
  } cases[] = {
      {"R1(A,B), R2(B", "expected ')' at position 13 in \"R1(A,B), R2(B\""},
      {"R1()", "expected a name at position 3"},
      {"", "empty query"},
      {" \t ", "empty query"},
      {"R1(A,B), R1(B,C)", "duplicate relation name R1"},
      {"R1(A,B) R2(B,C)", "expected ',' at position 8"},
      {"R1(A,B),", "expected a name at position 8"},
      {"R1 A,B)", "expected '(' at position 3"},
      {"R1(A;B)", "expected ')' at position 4"},
      {PathText(64), "at most 64 attributes supported"},
      {SameAttributeText(65), "at most 64 relations supported"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.text);
    std::string error;
    EXPECT_FALSE(ParseQuery(c.text, &error).has_value());
    EXPECT_NE(error.find(c.message), std::string::npos) << error;
  }
}

TEST(ParserTest, AcceptsSixtyFourAttributesAndSixtyFourRelations) {
  std::string error;
  std::optional<Hypergraph> path = ParseQuery(PathText(63), &error);
  ASSERT_TRUE(path.has_value()) << error;
  EXPECT_EQ(path->num_attrs(), 64u);
  std::optional<Hypergraph> star = ParseQuery(SameAttributeText(64), &error);
  ASSERT_TRUE(star.has_value()) << error;
  EXPECT_EQ(star->num_edges(), 64u);
}

TEST(ParserDeathTest, CompiledInFormAbortsWithTheMessage) {
  EXPECT_DEATH(ParseQuery("R1(A,B), R1(B,C)"), "duplicate relation name R1");
}

TEST(HypergraphTest, EdgesContainingAndDegree) {
  Hypergraph box = catalog::BoxJoin();
  AttrId a = *box.FindAttribute("A");
  EdgeSet holders = box.EdgesContaining(a);
  EXPECT_EQ(holders.size(), 2u);
  EXPECT_EQ(box.AttrDegree(a), 2u);
  EXPECT_TRUE(holders.Contains(*box.FindEdge("R1")));
  EXPECT_TRUE(holders.Contains(*box.FindEdge("R3")));
}

TEST(HypergraphTest, ResidualDropsAttribute) {
  Hypergraph q = catalog::SemiJoinExample();  // R1(A), R2(A,B), R3(B)
  AttrId a = *q.FindAttribute("A");
  Hypergraph residual = q.Residual(AttrSet::Single(a));
  // R1 becomes empty and is dropped; R2 loses A.
  EXPECT_EQ(residual.num_edges(), 2u);
  EXPECT_EQ(residual.edge(0).name, "R2");
  EXPECT_EQ(residual.edge(0).attrs.size(), 1u);
}

TEST(HypergraphTest, InducedByEdgesKeepsNames) {
  Hypergraph box = catalog::BoxJoin();
  EdgeSet kept;
  kept.Insert(*box.FindEdge("R1"));
  kept.Insert(*box.FindEdge("R5"));
  Hypergraph induced = box.InducedByEdges(kept);
  EXPECT_EQ(induced.num_edges(), 2u);
  EXPECT_TRUE(induced.FindEdge("R1").has_value());
  EXPECT_TRUE(induced.FindEdge("R5").has_value());
  EXPECT_EQ(box.SameNamedEdgeIn(induced, *box.FindEdge("R5")), induced.FindEdge("R5"));
}

TEST(HypergraphTest, ConnectedComponents) {
  Hypergraph q = ParseQuery("R1(A,B), R2(B,C), R3(X,Y), R4(Z)");
  std::vector<EdgeSet> components = q.ConnectedComponents();
  EXPECT_EQ(components.size(), 3u);
  EXPECT_EQ(components[0].size(), 2u);  // R1-R2 linked through B
}

TEST(HypergraphTest, IsReduced) {
  EXPECT_FALSE(catalog::SemiJoinExample().IsReduced());
  EXPECT_TRUE(catalog::BoxJoin().IsReduced());
  EXPECT_TRUE(catalog::Path(4).IsReduced());
}

TEST(HypergraphTest, BuilderRejectsDuplicateRelationNames) {
  Hypergraph::Builder builder;
  builder.AddRelation("R", {"A"});
  EXPECT_DEATH(builder.AddRelation("R", {"B"}), "duplicate");
}

TEST(HypergraphTest, ToStringRoundTrip) {
  Hypergraph q = catalog::Line3();
  EXPECT_EQ(q.ToString(), "R1(A,B) |><| R2(B,C) |><| R3(C,D)");
}

}  // namespace
}  // namespace coverpack
