#include "core/yannakakis.h"

#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "mpc/primitives.h"
#include "query/join_tree.h"
#include "relation/operators.h"
#include "util/logging.h"

namespace coverpack {

namespace {

/// Joins two distributed relations by hash-repartitioning both on their
/// shared attributes (must be nonempty) and joining locally.
DistRelation JoinExchange(Cluster* cluster, const DistRelation& left, const DistRelation& right,
                          uint32_t* round) {
  AttrSet shared = left.attrs().Intersect(right.attrs());
  CP_CHECK(!shared.empty()) << "join tree edge without shared attributes";
  DistRelation lp = mpc::HashPartition(cluster, left, shared, *round);
  DistRelation rp = mpc::HashPartition(cluster, right, shared, *round);
  *round += 1;
  DistRelation output(left.attrs().Union(right.attrs()), cluster->p());
  for (uint32_t s = 0; s < cluster->p(); ++s) {
    output.shard(s) = HashJoin(lp.shard(s), rp.shard(s));
  }
  return output;
}

}  // namespace

YannakakisResult ComputeYannakakis(const Hypergraph& query, const Instance& instance,
                                   uint32_t p) {
  instance.CheckAgainst(query);
  auto tree = JoinTree::Build(query);
  CP_CHECK(tree.has_value()) << "Yannakakis requires an alpha-acyclic query";

  Cluster cluster(p);
  uint32_t round = 0;

  // Initial placement is free; the semi-join reduction is charged for real.
  std::vector<DistRelation> dist;
  dist.reserve(query.num_edges());
  for (uint32_t e = 0; e < query.num_edges(); ++e) {
    dist.push_back(DistRelation::InitialPlacement(cluster, instance[e]));
  }

  const std::vector<uint32_t> top_down = tree->TopDown();

  // Phase 1: full semi-join reduction (upward then downward pass).
  for (auto it = top_down.rbegin(); it != top_down.rend(); ++it) {
    uint32_t node = *it;
    uint32_t parent = tree->parent(node);
    if (parent != JoinTree::kNoParent) {
      dist[parent] = mpc::SemiJoinMpc(&cluster, dist[parent], dist[node], &round);
    }
  }
  for (uint32_t node : top_down) {
    for (uint32_t child : tree->children(node)) {
      dist[child] = mpc::SemiJoinMpc(&cluster, dist[child], dist[node], &round);
    }
  }

  // Phase 2: bottom-up joins. subtree[n] accumulates the join of the
  // subtree rooted at n.
  std::vector<DistRelation> subtree = dist;
  for (auto it = top_down.rbegin(); it != top_down.rend(); ++it) {
    uint32_t node = *it;
    for (uint32_t child : tree->children(node)) {
      subtree[node] = JoinExchange(&cluster, subtree[node], subtree[child], &round);
    }
  }

  // Cartesian product across components happens at emission (zero-cost in
  // the model); we combine the gathered per-component results.
  YannakakisResult result;
  Relation combined;
  bool first = true;
  for (uint32_t root : tree->Roots()) {
    Relation component = subtree[root].Gather();
    if (first) {
      combined = std::move(component);
      first = false;
    } else {
      combined = HashJoin(combined, component);
    }
  }
  result.results = std::move(combined);
  result.output_count = result.results.size();
  result.max_load = cluster.tracker().MaxLoad();
  result.rounds = round;
  result.total_communication = cluster.tracker().TotalCommunication();
  return result;
}

}  // namespace coverpack
