#include "query/join_tree.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace coverpack {

namespace {

/// Small union-find over node ids.
class UnionFind {
 public:
  explicit UnionFind(uint32_t n) : parent_(n) {
    for (uint32_t i = 0; i < n; ++i) parent_[i] = i;
  }
  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  /// Returns false if already united.
  bool Unite(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<uint32_t> parent_;
};

}  // namespace

std::optional<JoinTree> JoinTree::Build(const Hypergraph& query) {
  uint32_t m = query.num_edges();
  CP_CHECK_GT(m, 0u);

  // Kruskal on pairwise intersection weights (descending).
  struct Candidate {
    uint32_t weight;
    uint32_t a;
    uint32_t b;
  };
  std::vector<Candidate> candidates;
  for (uint32_t i = 0; i < m; ++i) {
    for (uint32_t j = i + 1; j < m; ++j) {
      uint32_t weight = query.edge(i).attrs.Intersect(query.edge(j).attrs).size();
      if (weight > 0) candidates.push_back({weight, i, j});
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& x, const Candidate& y) { return x.weight > y.weight; });

  UnionFind uf(m);
  std::vector<std::vector<uint32_t>> adjacency(m);
  for (const auto& candidate : candidates) {
    if (uf.Unite(candidate.a, candidate.b)) {
      adjacency[candidate.a].push_back(candidate.b);
      adjacency[candidate.b].push_back(candidate.a);
    }
  }

  // Orient each component from its smallest-id node.
  JoinTree tree;
  tree.parent_.assign(m, kNoParent);
  tree.children_.assign(m, {});
  std::vector<bool> visited(m, false);
  for (uint32_t root = 0; root < m; ++root) {
    if (visited[root]) continue;
    visited[root] = true;
    std::vector<uint32_t> queue{root};
    while (!queue.empty()) {
      uint32_t u = queue.back();
      queue.pop_back();
      for (uint32_t w : adjacency[u]) {
        if (visited[w]) continue;
        visited[w] = true;
        tree.parent_[w] = u;
        tree.children_[u].push_back(w);
        queue.push_back(w);
      }
    }
  }

  // Validate the running-intersection property: for every attribute, the
  // nodes containing it must be connected within the forest.
  for (AttrId v : query.AllAttrs().ToVector()) {
    EdgeSet holders = query.EdgesContaining(v);
    if (holders.size() <= 1) continue;
    std::vector<EdgeId> nodes = holders.ToVector();
    // BFS within holders along tree adjacency.
    EdgeSet reached = EdgeSet::Single(nodes[0]);
    std::vector<uint32_t> queue{nodes[0]};
    while (!queue.empty()) {
      uint32_t u = queue.back();
      queue.pop_back();
      auto visit = [&](uint32_t w) {
        if (holders.Contains(w) && !reached.Contains(w)) {
          reached.Insert(w);
          queue.push_back(w);
        }
      };
      if (tree.parent_[u] != kNoParent) visit(tree.parent_[u]);
      for (uint32_t child : tree.children_[u]) visit(child);
    }
    if (reached != holders) return std::nullopt;  // cyclic query
  }
  return tree;
}

std::vector<uint32_t> JoinTree::Roots() const {
  std::vector<uint32_t> roots;
  for (uint32_t i = 0; i < num_nodes(); ++i) {
    if (IsRoot(i)) roots.push_back(i);
  }
  return roots;
}

std::vector<uint32_t> JoinTree::Leaves() const {
  std::vector<uint32_t> leaves;
  for (uint32_t i = 0; i < num_nodes(); ++i) {
    if (IsLeaf(i)) leaves.push_back(i);
  }
  return leaves;
}

std::vector<uint32_t> JoinTree::TopDown() const {
  std::vector<uint32_t> order;
  order.reserve(num_nodes());
  for (uint32_t root : Roots()) {
    std::vector<uint32_t> stack{root};
    while (!stack.empty()) {
      const uint32_t u = stack.back();
      stack.pop_back();
      order.push_back(u);
      for (uint32_t child : children_[u]) stack.push_back(child);
    }
  }
  return order;
}

std::vector<EdgeSet> JoinTree::Components() const {
  // TopDown() lists each component contiguously, starting at its root.
  std::vector<EdgeSet> components;
  for (uint32_t node : TopDown()) {
    if (IsRoot(node)) components.emplace_back();
    components.back().Insert(node);
  }
  return components;
}

std::vector<EdgeSet> JoinTree::TreeComponents(EdgeSet s) const {
  UnionFind uf(num_nodes());
  for (uint32_t node = 0; node < num_nodes(); ++node) {
    if (!s.Contains(node) || parent_[node] == kNoParent) continue;
    if (s.Contains(parent_[node])) uf.Unite(node, parent_[node]);
  }
  std::vector<EdgeSet> components;
  std::vector<int> component_of_root(num_nodes(), -1);
  for (uint32_t node : s.ToVector()) {
    uint32_t root = uf.Find(node);
    if (component_of_root[root] == -1) {
      component_of_root[root] = static_cast<int>(components.size());
      components.emplace_back();
    }
    components[static_cast<size_t>(component_of_root[root])].Insert(node);
  }
  return components;
}

std::vector<uint32_t> JoinTree::PathBetween(uint32_t a, uint32_t b) const {
  // Collect ancestors of a, then walk up from b to the first common one.
  std::vector<uint32_t> a_chain;
  for (uint32_t u = a;; u = parent_[u]) {
    a_chain.push_back(u);
    if (parent_[u] == kNoParent) break;
  }
  auto position_in_a_chain = [&](uint32_t node) -> std::optional<size_t> {
    for (size_t i = 0; i < a_chain.size(); ++i) {
      if (a_chain[i] == node) return i;
    }
    return std::nullopt;
  };
  std::vector<uint32_t> b_chain;
  for (uint32_t u = b;; u = parent_[u]) {
    if (auto pos = position_in_a_chain(u)) {
      std::vector<uint32_t> path(a_chain.begin(), a_chain.begin() + static_cast<long>(*pos) + 1);
      for (auto it = b_chain.rbegin(); it != b_chain.rend(); ++it) path.push_back(*it);
      return path;
    }
    b_chain.push_back(u);
    CP_CHECK(parent_[u] != kNoParent) << "nodes in different components";
  }
}

void JoinTree::RerootAt(uint32_t node) {
  // Reverse parent links along the node->old-root path.
  std::vector<uint32_t> chain;
  for (uint32_t u = node; u != kNoParent; u = parent_[u]) chain.push_back(u);
  for (size_t i = chain.size(); i-- > 1;) {
    uint32_t upper = chain[i];
    uint32_t lower = chain[i - 1];
    // upper was parent of lower; now lower becomes parent of upper.
    auto& upper_children = children_[upper];
    upper_children.erase(std::find(upper_children.begin(), upper_children.end(), lower));
    children_[lower].push_back(upper);
    parent_[upper] = lower;
  }
  parent_[node] = kNoParent;
}

std::string JoinTree::ToString(const Hypergraph& query) const {
  std::ostringstream oss;
  for (uint32_t root : Roots()) {
    std::vector<std::pair<uint32_t, uint32_t>> stack{{root, 0}};
    while (!stack.empty()) {
      auto [node, depth] = stack.back();
      stack.pop_back();
      oss << std::string(depth * 2, ' ') << query.edge(node).name << "\n";
      for (uint32_t child : children_[node]) stack.push_back({child, depth + 1});
    }
  }
  return oss.str();
}

}  // namespace coverpack
