#include "relation/aggregate.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "query/join_tree.h"
#include "query/properties.h"
#include "relation/oracle.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace coverpack {

namespace {

struct VectorHash {
  size_t operator()(const std::vector<Value>& v) const { return HashVector(v); }
};

/// A relation whose rows carry semiring annotations.
struct AnnRel {
  Relation rows;
  std::vector<uint64_t> weights;
};

std::vector<Value> KeyOf(std::span<const Value> row, const std::vector<uint32_t>& cols) {
  std::vector<Value> key;
  key.reserve(cols.size());
  for (uint32_t c : cols) key.push_back(row[c]);
  return key;
}

std::vector<uint32_t> ColumnsOf(const Relation& relation, AttrSet attrs) {
  std::vector<uint32_t> cols;
  for (AttrId v : attrs.ToVector()) cols.push_back(relation.ColumnOf(v));
  return cols;
}

/// Groups an annotated relation by `out_attrs`, combining annotations.
AnnRel GroupBy(const AnnRel& input, AttrSet out_attrs, const Semiring& semiring) {
  AnnRel output;
  output.rows = Relation(out_attrs);
  std::vector<uint32_t> cols = ColumnsOf(input.rows, out_attrs);
  std::unordered_map<std::vector<Value>, uint64_t, VectorHash> groups;
  for (size_t i = 0; i < input.rows.size(); ++i) {
    auto [it, inserted] = groups.try_emplace(KeyOf(input.rows.row(i), cols),
                                             semiring.combine_identity);
    it->second = semiring.combine(it->second, input.weights[i]);
  }
  // Deterministic for a fixed standard library: groups is populated
  // single-threaded in input order, and aggregate results are compared as
  // key/value multisets downstream. Reordering here would change recorded
  // outputs, so the site is suppressed rather than rewritten.
  // cplint: allow(no-unordered-iteration)
  for (const auto& [key, value] : groups) {
    output.rows.AppendRow(std::span<const Value>(key));
    output.weights.push_back(value);
  }
  return output;
}

/// Multiplies each row's weight by the matching weight of `message`
/// (unique keys over its full schema, a subset of input's schema);
/// rows with no match are dropped (the semiring zero).
AnnRel Absorb(const AnnRel& input, const AnnRel& message, const Semiring& semiring) {
  std::vector<uint32_t> message_cols = ColumnsOf(message.rows, message.rows.attrs());
  std::unordered_map<std::vector<Value>, uint64_t, VectorHash> index;
  for (size_t i = 0; i < message.rows.size(); ++i) {
    index[KeyOf(message.rows.row(i), message_cols)] = message.weights[i];
  }
  std::vector<uint32_t> input_cols = ColumnsOf(input.rows, message.rows.attrs());
  AnnRel output;
  output.rows = Relation(input.rows.attrs());
  for (size_t i = 0; i < input.rows.size(); ++i) {
    auto it = index.find(KeyOf(input.rows.row(i), input_cols));
    if (it == index.end()) continue;
    output.rows.AppendRow(input.rows.row(i));
    output.weights.push_back(semiring.multiply(input.weights[i], it->second));
  }
  return output;
}

/// Natural join of two annotated relations with annotation multiply.
AnnRel JoinAnnotated(const AnnRel& a, const AnnRel& b, const Semiring& semiring) {
  AttrSet shared = a.rows.attrs().Intersect(b.rows.attrs());
  AttrSet out_attrs = a.rows.attrs().Union(b.rows.attrs());
  std::vector<uint32_t> a_cols = ColumnsOf(a.rows, shared);
  std::vector<uint32_t> b_cols = ColumnsOf(b.rows, shared);
  std::unordered_map<std::vector<Value>, std::vector<size_t>, VectorHash> index;
  for (size_t i = 0; i < b.rows.size(); ++i) {
    index[KeyOf(b.rows.row(i), b_cols)].push_back(i);
  }
  AnnRel output;
  output.rows = Relation(out_attrs);
  std::vector<Value> buffer(out_attrs.size());
  std::vector<AttrId> out_ids = out_attrs.ToVector();
  for (size_t i = 0; i < a.rows.size(); ++i) {
    auto it = index.find(KeyOf(a.rows.row(i), a_cols));
    if (it == index.end()) continue;
    for (size_t j : it->second) {
      for (size_t c = 0; c < out_ids.size(); ++c) {
        AttrId v = out_ids[c];
        buffer[c] = a.rows.attrs().Contains(v) ? a.rows.row(i)[a.rows.ColumnOf(v)]
                                               : b.rows.row(j)[b.rows.ColumnOf(v)];
      }
      output.rows.AppendRow(std::span<const Value>(buffer));
      output.weights.push_back(semiring.multiply(a.weights[i], b.weights[j]));
    }
  }
  return output;
}

/// Builds Q extended with a virtual hyperedge over exactly `output_attrs`.
Hypergraph ExtendWithVirtualEdge(const Hypergraph& query, AttrSet output_attrs) {
  Hypergraph::Builder builder;
  for (AttrId v = 0; v < query.num_attrs(); ++v) builder.AddAttribute(query.attr_name(v));
  for (uint32_t e = 0; e < query.num_edges(); ++e) {
    std::vector<AttrId> ids;
    for (AttrId v : query.edge(e).attrs.ToVector()) ids.push_back(v);
    builder.AddRelationByIds(query.edge(e).name, ids);
  }
  std::vector<AttrId> y_ids;
  for (AttrId v : output_attrs.ToVector()) y_ids.push_back(v);
  builder.AddRelationByIds("__virtual_y", y_ids);
  return builder.Build();
}

/// Bottom-up message passing over one component of the join tree; returns
/// the message of `node` toward its parent (grouped on `up_attrs`).
AnnRel MessageUp(const Hypergraph& extended, const JoinTree& tree, uint32_t node,
                 AttrSet up_attrs, uint32_t virtual_id, const Instance& instance,
                 const Annotations& annotations, const Semiring& semiring) {
  CP_CHECK(node != virtual_id) << "the virtual root never sends messages";
  AnnRel local;
  local.rows = instance[node];
  if (node < annotations.size() && !annotations[node].empty()) {
    local.weights = annotations[node];
  } else {
    local.weights.assign(local.rows.size(), semiring.multiply_identity);
  }
  for (uint32_t child : tree.children(node)) {
    AttrSet child_up = extended.edge(child).attrs.Intersect(extended.edge(node).attrs);
    AnnRel message = MessageUp(extended, tree, child, child_up, virtual_id, instance,
                               annotations, semiring);
    local = Absorb(local, message, semiring);
  }
  return GroupBy(local, up_attrs, semiring);
}

}  // namespace

Semiring CountingSemiring() {
  return Semiring{[](uint64_t a, uint64_t b) { return SaturatingAdd(a, b); }, 0,
                  [](uint64_t a, uint64_t b) { return SaturatingMul(a, b); }, 1};
}

Semiring TropicalSemiring() {
  return Semiring{[](uint64_t a, uint64_t b) { return std::min(a, b); },
                  std::numeric_limits<uint64_t>::max(),
                  [](uint64_t a, uint64_t b) { return SaturatingAdd(a, b); }, 0};
}

Annotations UnitAnnotations(const Instance& instance) {
  Annotations annotations(instance.num_relations());
  for (size_t e = 0; e < instance.num_relations(); ++e) {
    annotations[e].assign(instance[e].size(), 1);
  }
  return annotations;
}

bool IsFreeConnex(const Hypergraph& query, AttrSet output_attrs) {
  CP_CHECK(output_attrs.IsSubsetOf(query.AllAttrs()));
  if (output_attrs.empty()) return IsAlphaAcyclic(query);
  return IsAlphaAcyclic(ExtendWithVirtualEdge(query, output_attrs));
}

AggregateResult JoinAggregate(const Hypergraph& query, const Instance& instance,
                              const Annotations& annotations, AttrSet output_attrs,
                              const Semiring& semiring) {
  instance.CheckAgainst(query);
  CP_CHECK(IsFreeConnex(query, output_attrs))
      << "JoinAggregate requires a free-connex query: " << query.ToString();

  if (output_attrs.empty()) {
    AggregateResult result;
    result.keys = Relation(AttrSet());
    result.values.push_back(JoinAggregateScalar(query, instance, annotations, semiring));
    return result;
  }

  Hypergraph extended = ExtendWithVirtualEdge(query, output_attrs);
  uint32_t virtual_id = extended.num_edges() - 1;
  auto tree = JoinTree::Build(extended);
  CP_CHECK(tree.has_value());
  tree->RerootAt(virtual_id);

  // Components without the virtual edge contribute scalar factors.
  uint64_t scalar_factor = semiring.multiply_identity;
  bool scalar_zero = false;
  for (EdgeSet component : tree->Components()) {
    if (component.Contains(virtual_id)) continue;
    uint32_t root = JoinTree::kNoParent;
    for (uint32_t node : component.ToVector()) {
      if (tree->IsRoot(node)) root = node;
    }
    CP_CHECK(root != JoinTree::kNoParent);
    AnnRel message = MessageUp(extended, *tree, root, AttrSet(), virtual_id, instance,
                               annotations, semiring);
    if (message.rows.attrs().empty() && message.weights.empty()) {
      scalar_zero = true;  // an empty component: the whole join is empty
    } else {
      CP_CHECK_EQ(message.weights.size(), 1u);
      scalar_factor = semiring.multiply(scalar_factor, message.weights[0]);
    }
  }

  AggregateResult result;
  result.keys = Relation(output_attrs);
  if (scalar_zero) return result;

  // Combine the virtual root's children messages by natural join.
  AnnRel combined;
  bool first = true;
  for (uint32_t child : tree->children(virtual_id)) {
    AttrSet child_up = extended.edge(child).attrs.Intersect(output_attrs);
    AnnRel message = MessageUp(extended, *tree, child, child_up, virtual_id, instance,
                               annotations, semiring);
    combined = first ? std::move(message) : JoinAnnotated(combined, message, semiring);
    first = false;
  }
  if (first) {
    // No children: y attrs uncovered is impossible (every attribute occurs
    // in some edge, and that edge connects to the virtual node).
    CP_CHECK(false) << "virtual root without children";
  }
  CP_CHECK(combined.rows.attrs() == output_attrs)
      << "free-connex GHD must surface all output attributes";

  for (size_t i = 0; i < combined.rows.size(); ++i) {
    result.keys.AppendRow(combined.rows.row(i));
    result.values.push_back(semiring.multiply(combined.weights[i], scalar_factor));
  }
  return result;
}

uint64_t JoinAggregateScalar(const Hypergraph& query, const Instance& instance,
                             const Annotations& annotations, const Semiring& semiring) {
  instance.CheckAgainst(query);
  auto tree = JoinTree::Build(query);
  CP_CHECK(tree.has_value()) << "scalar aggregate requires an alpha-acyclic query";
  uint64_t total = semiring.multiply_identity;
  for (EdgeSet component : tree->Components()) {
    uint32_t root = JoinTree::kNoParent;
    for (uint32_t node : component.ToVector()) {
      if (tree->IsRoot(node)) root = node;
    }
    AnnRel message = MessageUp(query, *tree, root, AttrSet(), /*virtual_id=*/UINT32_MAX,
                               instance, annotations, semiring);
    if (message.weights.empty()) return semiring.combine_identity;  // empty join
    CP_CHECK_EQ(message.weights.size(), 1u);
    total = semiring.multiply(total, message.weights[0]);
  }
  return total;
}

AggregateResult JoinAggregateBruteForce(const Hypergraph& query, const Instance& instance,
                                        const Annotations& annotations, AttrSet output_attrs,
                                        const Semiring& semiring) {
  Relation joined = GenericJoin(query, instance);
  // Per relation: map from full row to annotation (rows are unique).
  std::vector<std::unordered_map<std::vector<Value>, uint64_t, VectorHash>> lookup(
      query.num_edges());
  for (uint32_t e = 0; e < query.num_edges(); ++e) {
    for (size_t i = 0; i < instance[e].size(); ++i) {
      auto row = instance[e].row(i);
      uint64_t weight = (e < annotations.size() && !annotations[e].empty())
                            ? annotations[e][i]
                            : semiring.multiply_identity;
      lookup[e][std::vector<Value>(row.begin(), row.end())] = weight;
    }
  }
  std::unordered_map<std::vector<Value>, uint64_t, VectorHash> groups;
  std::vector<uint32_t> out_cols = ColumnsOf(joined, output_attrs);
  for (size_t i = 0; i < joined.size(); ++i) {
    auto row = joined.row(i);
    uint64_t weight = semiring.multiply_identity;
    for (uint32_t e = 0; e < query.num_edges(); ++e) {
      std::vector<uint32_t> cols = ColumnsOf(joined, query.edge(e).attrs);
      weight = semiring.multiply(weight, lookup[e].at(KeyOf(row, cols)));
    }
    auto [it, inserted] = groups.try_emplace(KeyOf(row, out_cols), semiring.combine_identity);
    it->second = semiring.combine(it->second, weight);
  }
  AggregateResult result;
  result.keys = Relation(output_attrs);
  // Same as SemiringGroupBy above: single-threaded deterministic fill,
  // multiset comparison downstream; reordering would change recorded outputs.
  // cplint: allow(no-unordered-iteration)
  for (const auto& [key, value] : groups) {
    result.keys.AppendRow(std::span<const Value>(key));
    result.values.push_back(value);
  }
  return result;
}

}  // namespace coverpack
