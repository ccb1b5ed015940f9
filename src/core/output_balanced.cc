#include "core/output_balanced.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "mpc/cluster.h"
#include "mpc/exchange.h"
#include "mpc/primitives.h"
#include "query/join_tree.h"
#include "relation/join_index.h"
#include "relation/oracle.h"
#include "util/arena.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/thread_pool.h"

namespace coverpack {

namespace {

constexpr uint32_t kNoKey = 0xFFFFFFFFu;

/// One tree edge of the reduced instance, keyed for the slice walk: the
/// child's rows grouped by exact key on the attributes it shares with its
/// parent, and every parent row's key id. A parent list's child receive is
/// then the union of the key runs its rows reach, each run taken once.
struct EdgeKeyMap {
  uint32_t parent = 0;
  uint32_t child = 0;
  std::vector<uint32_t> key_start;   ///< key id -> offset into key_rows; num_keys + 1 entries
  std::vector<uint32_t> key_rows;    ///< child row ids, ascending within each key
  std::vector<uint32_t> parent_key;  ///< parent row -> key id

  uint32_t num_keys() const { return static_cast<uint32_t>(key_start.size() - 1); }
  uint64_t KeySize(uint32_t key) const { return key_start[key + 1] - key_start[key]; }
};

/// Builds the key map of tree edge (parent, child). The child's rows are
/// indexed by key hash, and each hash group is split into exact keys by a
/// short chain of representative rows, as KeyedWeightSums does; key ids
/// follow first occurrence in row order. All index scratch lives in one
/// arena frame, so only the three id arrays outlive the call.
EdgeKeyMap BuildEdgeKeyMap(const Hypergraph& query, const Instance& reduced, uint32_t parent,
                           uint32_t child) {
  EdgeKeyMap map;
  map.parent = parent;
  map.child = child;
  const Relation& parent_rel = reduced[parent];
  const Relation& child_rel = reduced[child];
  const AttrSet shared = query.edge(parent).attrs.Intersect(query.edge(child).attrs);

  ArenaScope scope;
  Arena* arena = scope.arena();
  const size_t num_cols = shared.size();
  uint32_t* parent_cols = arena->AllocateArray<uint32_t>(num_cols);
  uint32_t* child_cols = arena->AllocateArray<uint32_t>(num_cols);
  {
    size_t k = 0;
    for (AttrId a : shared.ToVector()) {
      parent_cols[k] = parent_rel.ColumnOf(a);
      child_cols[k] = child_rel.ColumnOf(a);
      ++k;
    }
  }
  GroupedKeyIndex index(arena);
  index.Build(child_rel, child_cols, num_cols);

  // Exact keys: rep[key] is the first child row carrying it, next[key] the
  // next key of the same hash group, head[group] the group's chain.
  const size_t n = child_rel.size();
  const Value* cbase = child_rel.raw().data();
  const uint32_t cwidth = child_rel.width();
  ArenaVector<uint32_t> rep(arena);
  ArenaVector<uint32_t> next(arena);
  uint32_t* head = arena->AllocateArray<uint32_t>(index.num_groups());
  std::memset(head, 0xFF, index.num_groups() * sizeof(uint32_t));
  uint32_t* key_of_row = arena->AllocateArray<uint32_t>(n);
  const uint32_t* group_of_row = index.group_of_row();
  for (size_t i = 0; i < n; ++i) {
    const Value* row = cbase + i * cwidth;
    const uint32_t g = group_of_row[i];
    uint32_t key = head[g];
    while (key != kNoKey &&
           !RowKeysEqual(row, child_cols, cbase + size_t{rep[key]} * cwidth, child_cols,
                         num_cols)) {
      key = next[key];
    }
    if (key == kNoKey) {
      key = static_cast<uint32_t>(rep.size());
      rep.push_back(static_cast<uint32_t>(i));
      next.push_back(head[g]);
      head[g] = key;
    }
    key_of_row[i] = key;
  }

  // Each key's rows as one ascending run: a counting sort by key id.
  map.key_start.assign(rep.size() + 1, 0);
  for (size_t i = 0; i < n; ++i) ++map.key_start[key_of_row[i] + 1];
  for (size_t key = 0; key < rep.size(); ++key) map.key_start[key + 1] += map.key_start[key];
  map.key_rows.resize(n);
  {
    std::vector<uint32_t> fill(map.key_start.begin(), map.key_start.end() - 1);
    for (size_t i = 0; i < n; ++i) map.key_rows[fill[key_of_row[i]]++] = static_cast<uint32_t>(i);
  }

  // Every parent row's key id. The instance is fully reduced, so every
  // parent row agrees with some child row.
  const Value* pbase = parent_rel.raw().data();
  const uint32_t pwidth = parent_rel.width();
  map.parent_key.resize(parent_rel.size());
  for (size_t j = 0; j < parent_rel.size(); ++j) {
    const Value* row = pbase + j * pwidth;
    const uint32_t g = index.ProbeGroup(HashRowKey(row, parent_cols, num_cols));
    uint32_t key = g == GroupedKeyIndex::kNoGroup ? kNoKey : head[g];
    while (key != kNoKey &&
           !RowKeysEqual(row, parent_cols, cbase + size_t{rep[key]} * cwidth, child_cols,
                         num_cols)) {
      key = next[key];
    }
    CP_CHECK(key != kNoKey) << "parent row " << j << " joins no row of its child";
    map.parent_key[j] = key;
  }
  return map;
}

/// The rows of `source` with ids `ids`, in that order.
Relation GatherRows(const Relation& source, const std::vector<uint32_t>& ids) {
  Relation out(source.attrs());
  const uint32_t width = source.width();
  const Value* base = source.raw().data();
  Value* dst = out.AppendUninitialized(ids.size());
  for (uint32_t id : ids) {
    std::memcpy(dst, base + size_t{id} * width, width * sizeof(Value));
    dst += width;
  }
  return out;
}

}  // namespace

RunResult ComputeOutputBalanced(const Hypergraph& query, const Instance& instance, uint32_t p,
                                const OutputBalancedOptions& options) {
  instance.CheckAgainst(query);
  auto tree = JoinTree::Build(query);
  CP_CHECK(tree.has_value()) << "output-balanced Yannakakis requires an acyclic query";
  CP_CHECK_EQ(tree->Roots().size(), 1u)
      << "output-balanced baseline handles connected queries only";
  uint32_t root = tree->Roots()[0];

  Cluster cluster(p);
  uint32_t round = 0;

  // Phase 1: full semi-join reduction + bottom-up weights, all O(N/p)
  // primitives (charged as such).
  Instance reduced = SemiJoinReduce(query, *tree, instance);
  mpc::ChargeLinear(&cluster, instance.TotalSize(), round);
  mpc::ChargeLinear(&cluster, instance.TotalSize(), round + 1);
  round += 2;

  // weight[e][i] = number of extensions of row i into the subtree of e;
  // the root's weights rank the output for the slicing below.
  const std::vector<std::vector<uint64_t>> weight = SubtreeWeights(query, *tree, reduced);
  mpc::ChargeLinear(&cluster, instance.TotalSize(), round);
  round += 1;

  RunResult result;
  result.servers_used = p;
  uint64_t out = 0;
  for (uint64_t w : weight[root]) out = SaturatingAdd(out, w);
  result.output_count = out;
  if (out == 0) {
    result.rounds = round;
    result.SetLoadTracker(std::move(cluster.tracker()));
    if (options.collect) result.results = Relation(query.AllAttrs());
    return result;
  }

  // Phase 2: assign contiguous output-rank ranges of ~OUT/p to servers;
  // server k receives the root tuples of its range and, downward, every
  // child tuple joining them (one semi-join per tree edge). These receives
  // are charged for real — they are where the OUT/p term materializes.
  uint64_t per_server = CeilDiv(out, p);
  std::vector<size_t> slice_begin(p + 1, reduced[root].size());
  {
    uint64_t prefix = 0;
    uint32_t server = 0;
    slice_begin[0] = 0;
    for (size_t i = 0; i < reduced[root].size(); ++i) {
      while (server + 1 <= p - 1 &&
             prefix >= static_cast<uint64_t>(server + 1) * per_server) {
        slice_begin[++server] = i;
      }
      prefix = SaturatingAdd(prefix, weight[root][i]);
    }
    while (server < p) slice_begin[++server] = reduced[root].size();
  }

  // The semi-joins of every slice run over one key map per tree edge, built
  // once here in top-down order, so a parent's rows are known before its
  // children's.
  std::vector<EdgeKeyMap> edges;
  uint32_t max_keys = 0;
  for (uint32_t node : tree->TopDown()) {
    for (uint32_t child : tree->children(node)) {
      edges.push_back(BuildEdgeKeyMap(query, reduced, node, child));
      max_keys = std::max(max_keys, edges.back().num_keys());
    }
  }

  // Each server's slice is independent. Pool tasks fill per-server receive
  // lists and local join results; the tracker charges and result appends
  // happen serially in server order afterwards (LoadTracker::Add resizes and
  // must not run concurrently), keeping everything thread-count-invariant.
  struct ServerOutcome {
    std::vector<uint64_t> receives;  // in charge order: root slice, then tree edges
    Relation local;
  };
  std::vector<ServerOutcome> per_server_out(p);
  ThreadPool::Global().ParallelFor(0, p, 1, [&](size_t k) {
    size_t begin = slice_begin[k];
    size_t end = slice_begin[k + 1];
    if (begin >= end) return;
    ServerOutcome& out = per_server_out[k];
    // rows[node]: the ids of the reduced rows of `node` this server
    // receives. Only nodes that are walked from, or joined, need them.
    std::vector<std::vector<uint32_t>> rows(query.num_edges());
    rows[root].resize(end - begin);
    std::iota(rows[root].begin(), rows[root].end(), static_cast<uint32_t>(begin));
    out.receives.push_back(end - begin);
    // Downward: a child's receive is every key run its parent's rows
    // reach, each distinct key appended once (seen marks the appended ones
    // and is cleared again after each edge).
    std::vector<uint8_t> seen(max_keys, 0);
    std::vector<uint32_t> keys;
    for (const EdgeKeyMap& edge : edges) {
      keys.clear();
      uint64_t received = 0;
      for (uint32_t j : rows[edge.parent]) {
        const uint32_t key = edge.parent_key[j];
        if (seen[key] != 0) continue;
        seen[key] = 1;
        keys.push_back(key);
        received += edge.KeySize(key);
      }
      for (uint32_t key : keys) seen[key] = 0;
      out.receives.push_back(received);
      if (!options.collect && tree->IsLeaf(edge.child)) continue;
      std::vector<uint32_t>& child_rows = rows[edge.child];
      child_rows.reserve(received);
      for (uint32_t key : keys) {
        child_rows.insert(child_rows.end(), edge.key_rows.begin() + edge.key_start[key],
                          edge.key_rows.begin() + edge.key_start[key + 1]);
      }
    }
    if (options.collect) {
      // The rows in ascending id order: the semi-join outputs of the
      // reduced relations, the local join's inputs.
      Instance needed(query);
      for (uint32_t node = 0; node < query.num_edges(); ++node) {
        std::sort(rows[node].begin(), rows[node].end());
        needed[node] = GatherRows(reduced[node], rows[node]);
      }
      out.local = GenericJoin(query, needed);
    }
  });
  mpc::ExchangePlan plan(p);
  for (uint32_t k = 0; k < p; ++k) {
    ServerOutcome& out = per_server_out[k];
    for (uint64_t amount : out.receives) plan.PlanReceive(k, amount);
    if (options.collect && !out.receives.empty()) {
      if (result.results.attrs() != query.AllAttrs()) {
        result.results = Relation(query.AllAttrs());
      }
      result.results.AppendAll(out.local);
    }
  }
  mpc::Exchange::Execute(&cluster, round, plan, "output_slices");
  round += 1;

  if (options.collect) {
    // Boundary root tuples can be shared by adjacent servers; dedup.
    if (result.results.attrs() == query.AllAttrs()) result.results.Dedup();
    result.output_count = result.results.size();
  }
  result.rounds = round;
  result.SetLoadTracker(std::move(cluster.tracker()));
  return result;
}

}  // namespace coverpack
