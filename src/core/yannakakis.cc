#include "core/yannakakis.h"

#include <utility>
#include <vector>

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

/// Charges exactly what JoinExchange charges, building nothing: for a join
/// whose rows nobody reads.
void ChargeJoinExchange(Cluster* cluster, const DistRelation& left, const DistRelation& right,
                        uint32_t* round) {
  AttrSet shared = left.attrs().Intersect(right.attrs());
  CP_CHECK(!shared.empty()) << "join tree edge without shared attributes";
  mpc::ChargeHashPartition(cluster, left, shared, *round);
  mpc::ChargeHashPartition(cluster, right, shared, *round);
  *round += 1;
}

}  // namespace

RunResult ComputeYannakakis(const Hypergraph& query, const Instance& instance, uint32_t p,
                            bool collect) {
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
  // subtree rooted at n. A root's join with its last child builds the
  // component's output, which only collect mode reads.
  std::vector<DistRelation> subtree = std::move(dist);
  for (auto it = top_down.rbegin(); it != top_down.rend(); ++it) {
    uint32_t node = *it;
    const std::vector<uint32_t>& children = tree->children(node);
    for (size_t i = 0; i < children.size(); ++i) {
      if (!collect && tree->IsRoot(node) && i + 1 == children.size()) {
        ChargeJoinExchange(&cluster, subtree[node], subtree[children[i]], &round);
      } else {
        subtree[node] = JoinExchange(&cluster, subtree[node], subtree[children[i]], &round);
      }
    }
  }

  RunResult result;
  result.rounds = round;
  result.servers_used = p;
  result.SetLoadTracker(std::move(cluster.tracker()));
  if (!collect) return result;

  // Cartesian product across components happens at emission (zero-cost in
  // the model); we combine the gathered per-component results.
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
  return result;
}

}  // namespace coverpack
