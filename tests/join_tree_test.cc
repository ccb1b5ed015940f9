#include "query/join_tree.h"

#include <gtest/gtest.h>

#include "query/catalog.h"
#include "query/parser.h"
#include "query/properties.h"

namespace coverpack {
namespace {

/// Checks the running-intersection property directly.
void ExpectValidJoinTree(const Hypergraph& query, const JoinTree& tree) {
  for (AttrId v : query.AllAttrs().ToVector()) {
    EdgeSet holders = query.EdgesContaining(v);
    if (holders.size() <= 1) continue;
    // Count tree edges among holders: connectivity needs exactly
    // |holders| - 1 within-holder parent links.
    uint32_t links = 0;
    for (EdgeId node : holders.ToVector()) {
      uint32_t parent = tree.parent(node);
      if (parent != JoinTree::kNoParent && holders.Contains(parent)) ++links;
    }
    EXPECT_EQ(links, holders.size() - 1)
        << "attribute " << query.attr_name(v) << " not connected in tree";
  }
}

TEST(JoinTreeTest, BuildsForAcyclicQueries) {
  for (const auto& entry : catalog::StandardRoster()) {
    auto tree = JoinTree::Build(entry.query);
    EXPECT_EQ(tree.has_value(), IsAlphaAcyclic(entry.query)) << entry.name;
    if (tree) ExpectValidJoinTree(entry.query, *tree);
  }
}

TEST(JoinTreeTest, Figure4TreeIsValid) {
  Hypergraph q = catalog::Figure4Query();
  auto tree = JoinTree::Build(q);
  ASSERT_TRUE(tree.has_value());
  ExpectValidJoinTree(q, *tree);
  EXPECT_EQ(tree->Roots().size(), 1u);
  EXPECT_EQ(tree->num_nodes(), 8u);
}

TEST(JoinTreeTest, DisconnectedQueryGivesForest) {
  Hypergraph q = ParseQuery("R1(A,B), R2(B,C), R3(X,Y)");
  auto tree = JoinTree::Build(q);
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->Roots().size(), 2u);
  EXPECT_EQ(tree->Components().size(), 2u);
}

TEST(JoinTreeTest, CyclicQueriesRejected) {
  EXPECT_FALSE(JoinTree::Build(catalog::Triangle()).has_value());
  EXPECT_FALSE(JoinTree::Build(catalog::BoxJoin()).has_value());
  EXPECT_FALSE(JoinTree::Build(catalog::LoomisWhitney(4)).has_value());
}

TEST(JoinTreeTest, TreeComponentsDefinition31) {
  // Example 3.2 shape: on the Figure 4 tree, {e1, e3, e7} are pairwise
  // tree-disconnected even though they share attribute A.
  Hypergraph q = catalog::Figure4Query();
  auto tree = JoinTree::Build(q);
  ASSERT_TRUE(tree.has_value());
  EdgeSet s1;
  s1.Insert(*q.FindEdge("e1"));
  s1.Insert(*q.FindEdge("e3"));
  s1.Insert(*q.FindEdge("e7"));
  EXPECT_EQ(tree->TreeComponents(s1).size(), 3u);
  // Adding e0 merges e1 and e3 with it (both are its tree neighbors).
  EdgeSet s2 = s1;
  s2.Insert(*q.FindEdge("e0"));
  std::vector<EdgeSet> components = tree->TreeComponents(s2);
  EXPECT_LT(components.size(), 4u);
}

TEST(JoinTreeTest, PathBetween) {
  Hypergraph q = catalog::Path(5);
  auto tree = JoinTree::Build(q);
  ASSERT_TRUE(tree.has_value());
  EdgeId r1 = *q.FindEdge("R1");
  EdgeId r5 = *q.FindEdge("R5");
  std::vector<uint32_t> path = tree->PathBetween(r1, r5);
  EXPECT_EQ(path.size(), 5u);
  EXPECT_EQ(path.front(), r1);
  EXPECT_EQ(path.back(), r5);
}

TEST(JoinTreeTest, RerootPreservesStructure) {
  Hypergraph q = catalog::Path(4);
  auto tree = JoinTree::Build(q);
  ASSERT_TRUE(tree.has_value());
  EdgeId r4 = *q.FindEdge("R4");
  tree->RerootAt(r4);
  EXPECT_TRUE(tree->IsRoot(r4));
  EXPECT_EQ(tree->Roots().size(), 1u);
  ExpectValidJoinTree(q, *tree);
  // Still a tree: every other node has a parent.
  uint32_t no_parent = 0;
  for (uint32_t n = 0; n < tree->num_nodes(); ++n) {
    if (tree->parent(n) == JoinTree::kNoParent) ++no_parent;
  }
  EXPECT_EQ(no_parent, 1u);
}

TEST(JoinTreeTest, TopDownWalksRootsInOrderChildrenLastFirst) {
  // Three components. In the first, R1 is the root with children R2 and
  // R3 (in that order), and R4 hangs below R3.
  Hypergraph q = ParseQuery("R1(A,B), R2(B,C), R3(B,D), R4(D,E), R5(X,Y), R6(Y,Z), R7(P,Q)");
  auto tree = JoinTree::Build(q);
  ASSERT_TRUE(tree.has_value());
  ASSERT_EQ(tree->Roots(), (std::vector<uint32_t>{0, 4, 6}));
  ASSERT_EQ(tree->children(0), (std::vector<uint32_t>{1, 2}));
  ASSERT_EQ(tree->children(2), (std::vector<uint32_t>{3}));
  // Roots in Roots() order; the stack pops a node's last child first.
  const std::vector<uint32_t> order = tree->TopDown();
  EXPECT_EQ(order, (std::vector<uint32_t>{0, 2, 3, 1, 4, 5, 6}));
  std::vector<size_t> position(order.size());
  for (size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (uint32_t node = 0; node < tree->num_nodes(); ++node) {
    if (tree->IsRoot(node)) continue;
    EXPECT_LT(position[tree->parent(node)], position[node]);
  }
}

TEST(JoinTreeTest, LeavesOfStar) {
  Hypergraph q = catalog::Star(4);
  auto tree = JoinTree::Build(q);
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->Leaves().size(), 3u);  // hub + 3 leaves
}

}  // namespace
}  // namespace coverpack
