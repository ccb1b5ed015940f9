#include "relation/oracle.h"

#include <algorithm>

#include "relation/message_pass.h"
#include "relation/operators.h"
#include "util/arena.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace coverpack {

namespace {

/// Backtracking state for GenericJoin over per-edge trie orders.
///
/// Each edge keeps one arena array of row ids, sorted once into trie order:
/// lexicographic over the edge's columns. Columns ascend by AttrId, which is
/// also the search's level order, so at any depth the live rows of an edge
/// are one contiguous slice of that order, agree on every bound attribute of
/// the edge, and ascend by the column of the edge's next attribute. Level d
/// (attribute A) intersects its holders' slices leapfrog-style: each holder
/// gallops from its cursor to the first key >= the current candidate, a key
/// past the candidate becomes the new candidate, and once every holder sits
/// on the same key its equal-key run is found by galloping once more. Each
/// gallop costs O(log distance), and backtracking restores slice bounds
/// only. Candidates ascend, so the output holds every distinct satisfying
/// assignment once, in lexicographic order.
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
  std::vector<uint32_t*> rows;  // per edge: arena row-id array, trie order
  std::vector<Slice> slice;     // per edge: live range of rows[e]
  std::vector<Value> assignment;
  Relation* output = nullptr;
};

/// First position in [pos, end) at which `before` fails (or `end`), for a
/// predicate that holds on a prefix of the range: probes pos, pos + 1,
/// pos + 3, pos + 7, ... until one fails, then binary-searches the last
/// gap. O(log d) for an answer d positions away.
template <typename Before>
uint32_t Gallop(uint32_t pos, uint32_t end, const Before& before) {
  if (pos >= end || !before(pos)) return pos;
  size_t known = pos;  // before(known) holds
  size_t step = 1;
  while (known + step < end && before(static_cast<uint32_t>(known + step))) {
    known += step;
    step <<= 1;
  }
  uint32_t lo = static_cast<uint32_t>(known + 1);
  uint32_t hi = static_cast<uint32_t>(std::min<size_t>(known + step, end));
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (before(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// One holder's live slice at a level, with its leapfrog cursor.
struct Run {
  const uint32_t* rows;  // the edge's row ids in trie order
  const Value* column;   // the level attribute's column: key = column[id * width]
  uint32_t width;
  uint32_t pos;
  uint32_t end;

  Value Key(uint32_t at) const { return column[size_t{rows[at]} * width]; }
};

void Recurse(SearchState* state, size_t depth) {
  if (depth == state->levels.size()) {
    state->output->AppendRow(std::span<const Value>(state->assignment));
    return;
  }
  const SearchState::Level& level = state->levels[depth];
  const size_t num_holders = level.holders.size();

  constexpr size_t kMaxEdges = 64;
  CP_DCHECK(num_holders <= kMaxEdges);
  Run runs[kMaxEdges];
  SearchState::Slice saved[kMaxEdges];
  for (size_t h = 0; h < num_holders; ++h) {
    const SearchState::Holder& holder = level.holders[h];
    saved[h] = state->slice[holder.edge];
    runs[h] = Run{state->rows[holder.edge], holder.base + holder.col, holder.width,
                  saved[h].begin, saved[h].end};
  }

  // Leapfrog: the last `agreed` holders visited (round-robin) sit on
  // `value`. Every live slice is non-empty, so holder 0 seeds the first
  // candidate.
  Value value = runs[0].Key(runs[0].pos);
  size_t agreed = 1;
  size_t h = num_holders > 1 ? 1 : 0;
  for (;;) {
    if (agreed < num_holders) {
      Run& run = runs[h];
      run.pos = Gallop(run.pos, run.end, [&](uint32_t at) { return run.Key(at) < value; });
      if (run.pos == run.end) break;
      const Value found = run.Key(run.pos);
      if (found == value) {
        ++agreed;
      } else {
        value = found;
        agreed = 1;
      }
      h = h + 1 == num_holders ? 0 : h + 1;
      continue;
    }
    // Every holder sits on `value`: its equal-key run is the refinement.
    state->assignment[depth] = value;
    bool exhausted = false;
    for (size_t k = 0; k < num_holders; ++k) {
      Run& run = runs[k];
      const uint32_t run_end =
          Gallop(run.pos + 1, run.end, [&](uint32_t at) { return run.Key(at) == value; });
      state->slice[level.holders[k].edge] = SearchState::Slice{run.pos, run_end};
      run.pos = run_end;
      exhausted = exhausted || run_end == run.end;
    }
    Recurse(state, depth + 1);
    if (exhausted) break;
    value = runs[0].Key(runs[0].pos);
    agreed = 1;
    h = num_holders > 1 ? 1 : 0;
  }
  for (size_t k = 0; k < num_holders; ++k) {
    state->slice[level.holders[k].edge] = saved[k];
  }
}

}  // namespace

Relation GenericJoin(const Hypergraph& query, const Instance& instance) {
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
    uint32_t* rows = scope.arena()->AllocateArray<uint32_t>(n);
    for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i);
    // Trie order: lexicographic over the columns, i.e. over the levels.
    const Value* base = instance[e].raw().data();
    const uint32_t width = instance[e].width();
    const auto row_less = [base, width](uint32_t a, uint32_t b) {
      const Value* ra = base + size_t{a} * width;
      const Value* rb = base + size_t{b} * width;
      return std::lexicographical_compare(ra, ra + width, rb, rb + width);
    };
    // HyperCube cells receive rows in their source's order, often sorted.
    if (!std::is_sorted(rows, rows + n, row_less)) std::sort(rows, rows + n, row_less);
    state.rows[e] = rows;
    state.slice[e] = SearchState::Slice{0, static_cast<uint32_t>(n)};
  }
  state.assignment.resize(attr_order.size());
  state.output = &output;
  Recurse(&state, 0);
  return output;
}

std::vector<std::vector<uint64_t>> SubtreeWeights(const Hypergraph& query, const JoinTree& tree,
                                                  const Instance& instance) {
  instance.CheckAgainst(query);
  CP_CHECK_EQ(tree.num_nodes(), query.num_edges());
  SemiringWeights<CountingSemiring> weight(query.num_edges());
  for (uint32_t e = 0; e < query.num_edges(); ++e) weight[e].assign(instance[e].size(), 1);
  MessagePass<CountingSemiring>(query, tree, instance, &weight);
  return weight;
}

uint64_t AcyclicJoinCount(const Hypergraph& query, const JoinTree& tree,
                          const Instance& instance) {
  return RootProduct<CountingSemiring>(tree, SubtreeWeights(query, tree, instance));
}

uint64_t ValueFactor(AttrId attr, Value value) {
  return MixHash(HashCombine(uint64_t{attr} + 1, value)) | 1;
}

uint64_t ResultDigest(const Relation& relation) {
  const std::vector<AttrId> attrs = relation.attrs().ToVector();
  uint64_t digest = 0;
  for (size_t i = 0; i < relation.size(); ++i) {
    const std::span<const Value> row = relation.row(i);
    uint64_t product = 1;
    for (size_t c = 0; c < attrs.size(); ++c) product *= ValueFactor(attrs[c], row[c]);
    digest += product;
  }
  return digest;
}

uint64_t AcyclicResultDigest(const Hypergraph& query, const JoinTree& tree,
                             const Instance& instance) {
  instance.CheckAgainst(query);
  CP_CHECK_EQ(tree.num_nodes(), query.num_edges());
  // Each attribute's factor enters once per result: through the topmost of
  // its holders, the one whose parent lacks it (running intersection).
  SemiringWeights<WrappingSemiring> weight(query.num_edges());
  for (uint32_t e = 0; e < query.num_edges(); ++e) {
    const Relation& relation = instance[e];
    AttrSet owned = relation.attrs();
    if (!tree.IsRoot(e)) owned = owned.Minus(query.edge(tree.parent(e)).attrs);
    weight[e].assign(relation.size(), 1);
    for (AttrId attr : owned.ToVector()) {
      const uint32_t column = relation.ColumnOf(attr);
      for (size_t i = 0; i < relation.size(); ++i) {
        weight[e][i] *= ValueFactor(attr, relation.row(i)[column]);
      }
    }
  }
  MessagePass<WrappingSemiring>(query, tree, instance, &weight);
  return RootProduct<WrappingSemiring>(tree, weight);
}

uint64_t JoinCount(const Hypergraph& query, const Instance& instance) {
  if (auto tree = JoinTree::Build(query)) {
    return AcyclicJoinCount(query, *tree, instance);
  }
  return GenericJoin(query, instance).size();
}

uint64_t SubjoinSize(const Hypergraph& query, const JoinTree& tree, const Instance& instance,
                     EdgeSet s) {
  if (s.empty()) return 1;
  uint64_t total = 1;
  for (EdgeSet component : tree.TreeComponents(s)) {
    Hypergraph sub = query.InducedByEdges(component);
    Instance sub_instance(sub);
    std::vector<EdgeId> members = component.ToVector();
    for (size_t i = 0; i < members.size(); ++i) {
      sub_instance[static_cast<EdgeId>(i)] = instance[members[i]];
    }
    total = SaturatingMul(total, JoinCount(sub, sub_instance));
  }
  return total;
}

Instance SemiJoinReduce(const Hypergraph& query, const JoinTree& tree,
                        const Instance& instance) {
  Instance reduced = instance;
  uint32_t m = query.num_edges();

  // Top-down order per component; reversed for the upward pass.
  const std::vector<uint32_t> top_down = tree.TopDown();
  CP_CHECK_EQ(top_down.size(), m);

  // Upward: parent := parent semijoin child. SemiJoin's build side carries
  // a bloom filter, so each pass is a filtered probe scan (see §4h).
  for (auto it = top_down.rbegin(); it != top_down.rend(); ++it) {
    uint32_t node = *it;
    uint32_t parent = tree.parent(node);
    if (parent != JoinTree::kNoParent) {
      reduced[parent] = SemiJoin(reduced[parent], reduced[node]);
    }
  }
  // Downward: child := child semijoin parent.
  for (uint32_t node : top_down) {
    for (uint32_t child : tree.children(node)) {
      reduced[child] = SemiJoin(reduced[child], reduced[node]);
    }
  }
  return reduced;
}

}  // namespace coverpack
