#include "relation/aggregate.h"

#include <map>
#include <optional>
#include <span>

#include "query/join_tree.h"
#include "query/properties.h"
#include "relation/message_pass.h"
#include "relation/operators.h"
#include "relation/oracle.h"
#include "util/logging.h"

namespace coverpack {

namespace {

/// S paired with the boolean semiring: `joined` records whether any join
/// result exists, so a group whose value is S::Zero() is still reported.
template <typename S>
struct Joined {
  struct Weight {
    bool joined;
    typename S::Weight value;
  };
  static Weight Zero() { return {false, S::Zero()}; }
  static Weight One() { return {true, S::One()}; }
  static Weight Add(Weight a, Weight b) {
    return {a.joined || b.joined, S::Add(a.value, b.value)};
  }
  static Weight Mul(Weight a, Weight b) {
    return {a.joined && b.joined, S::Mul(a.value, b.value)};
  }
};

/// Each row's annotation, S::One() where its relation has none. Every
/// aggregate starts here, so this is where a vector of the wrong length is
/// rejected.
template <typename S>
SemiringWeights<S> RowAnnotations(const Hypergraph& query, const Instance& instance,
                                  const Annotations& annotations) {
  instance.CheckAgainst(query);
  SemiringWeights<S> weights(instance.num_relations());
  for (EdgeId e = 0; e < instance.num_relations(); ++e) {
    if (e < annotations.size() && !annotations[e].empty()) {
      CP_CHECK_EQ(annotations[e].size(), instance[e].size())
          << "the annotations of " << query.edge(e).name << " need one entry per row";
      weights[e] = annotations[e];
    } else {
      weights[e].assign(instance[e].size(), S::One());
    }
  }
  return weights;
}

/// Builds Q extended with a virtual hyperedge over exactly `output_attrs`.
Hypergraph ExtendWithVirtualEdge(const Hypergraph& query, AttrSet output_attrs) {
  Hypergraph::Builder builder;
  for (AttrId v = 0; v < query.num_attrs(); ++v) builder.AddAttribute(query.attr_name(v));
  for (uint32_t e = 0; e < query.num_edges(); ++e) {
    builder.AddRelationByIds(query.edge(e).name, query.edge(e).attrs.ToVector());
  }
  builder.AddRelationByIds("__virtual_y", output_attrs.ToVector());
  return builder.Build();
}

}  // namespace

Annotations UnitAnnotations(const Instance& instance) {
  Annotations annotations(instance.num_relations());
  for (size_t e = 0; e < instance.num_relations(); ++e) {
    annotations[e].assign(instance[e].size(), 1);
  }
  return annotations;
}

bool IsFreeConnex(const Hypergraph& query, AttrSet output_attrs) {
  CP_CHECK(output_attrs.IsSubsetOf(query.AllAttrs()));
  if (!IsAlphaAcyclic(query)) return false;
  return output_attrs.empty() || IsAlphaAcyclic(ExtendWithVirtualEdge(query, output_attrs));
}

template <typename S>
AggregateResult JoinAggregate(const Hypergraph& query, const Instance& instance,
                              const Annotations& annotations, AttrSet output_attrs, S) {
  using J = Joined<S>;
  const SemiringWeights<S> annotated = RowAnnotations<S>(query, instance, annotations);
  CP_CHECK(IsFreeConnex(query, output_attrs))
      << "JoinAggregate requires a free-connex query: " << query.ToString();

  // A nonempty y becomes a virtual edge at the root of the extended tree.
  // Its relation, the groups, stays empty through the pass and is filled
  // once its children's weights are final.
  const bool grouped = !output_attrs.empty();
  const Hypergraph extended = grouped ? ExtendWithVirtualEdge(query, output_attrs) : query;
  const uint32_t root = grouped ? query.num_edges() : JoinTree::kNoParent;
  std::optional<JoinTree> tree = JoinTree::Build(extended);
  CP_CHECK(tree.has_value());
  if (grouped) tree->RerootAt(root);
  Instance rows(extended);
  SemiringWeights<J> weights(extended.num_edges());
  for (EdgeId e = 0; e < query.num_edges(); ++e) {
    rows[e] = instance[e];
    for (typename S::Weight w : annotated[e]) weights[e].push_back({true, w});
  }
  MessagePass<J>(extended, *tree, rows, &weights);

  // Components away from the root scale every group by their aggregate.
  typename J::Weight factor = J::One();
  for (uint32_t r : tree->Roots()) {
    if (r != root) factor = J::Mul(factor, SumOf<J>(weights[r]));
  }
  AggregateResult result;
  result.keys = Relation(output_attrs);
  if (!factor.joined) return result;
  if (!grouped) {
    result.keys.AppendRow(std::span<const Value>());
    result.values.push_back(factor.value);
    return result;
  }

  // The root's children meet only on y, so the groups are the join of their
  // joined rows' projections onto y.
  std::vector<Relation> projections;
  for (uint32_t child : tree->children(root)) {
    Relation joined(rows[child].attrs());
    for (size_t i = 0; i < rows[child].size(); ++i) {
      if (weights[child][i].joined) joined.AppendRow(rows[child].row(i));
    }
    projections.push_back(Project(joined, joined.attrs().Intersect(output_attrs)));
  }
  std::vector<const Relation*> inputs;
  for (const Relation& projection : projections) inputs.push_back(&projection);
  rows[root] = MultiwayJoin(inputs);
  if (rows[root].empty()) return result;
  CP_CHECK(rows[root].attrs() == output_attrs) << "the root's children must cover y";
  weights[root].assign(rows[root].size(), J::One());
  AbsorbChildren<J>(extended, *tree, rows, root, &weights);
  result.keys = std::move(rows[root]);
  for (const typename J::Weight& w : weights[root]) {
    result.values.push_back(S::Mul(w.value, factor.value));
  }
  return result;
}

template <typename S>
uint64_t JoinAggregateScalar(const Hypergraph& query, const Instance& instance,
                             const Annotations& annotations, S) {
  SemiringWeights<S> weights = RowAnnotations<S>(query, instance, annotations);
  auto tree = JoinTree::Build(query);
  CP_CHECK(tree.has_value()) << "scalar aggregate requires an alpha-acyclic query";
  MessagePass<S>(query, *tree, instance, &weights);
  return RootProduct<S>(*tree, weights);
}

template <typename S>
AggregateResult JoinAggregateBruteForce(const Hypergraph& query, const Instance& instance,
                                        const Annotations& annotations, AttrSet output_attrs,
                                        S) {
  const SemiringWeights<S> annotated = RowAnnotations<S>(query, instance, annotations);
  const Relation joined = GenericJoin(query, instance);
  const auto key_of = [&joined](size_t r, AttrSet attrs) {
    std::vector<Value> key;
    for (AttrId a : attrs.ToVector()) key.push_back(joined.At(r, a));
    return key;
  };
  // Per relation: each row's annotation, keyed by the row (rows are unique).
  std::vector<std::map<std::vector<Value>, uint64_t>> lookup(query.num_edges());
  for (EdgeId e = 0; e < query.num_edges(); ++e) {
    for (size_t i = 0; i < instance[e].size(); ++i) {
      const std::span<const Value> row = instance[e].row(i);
      lookup[e][std::vector<Value>(row.begin(), row.end())] = annotated[e][i];
    }
  }
  std::map<std::vector<Value>, uint64_t> groups;
  for (size_t r = 0; r < joined.size(); ++r) {
    uint64_t weight = S::One();
    for (EdgeId e = 0; e < query.num_edges(); ++e) {
      weight = S::Mul(weight, lookup[e].at(key_of(r, query.edge(e).attrs)));
    }
    auto [it, inserted] = groups.try_emplace(key_of(r, output_attrs), S::Zero());
    it->second = S::Add(it->second, weight);
  }
  AggregateResult result;
  result.keys = Relation(output_attrs);
  for (const auto& [key, value] : groups) {
    result.keys.AppendRow(std::span<const Value>(key));
    result.values.push_back(value);
  }
  return result;
}

template AggregateResult JoinAggregate(const Hypergraph&, const Instance&, const Annotations&,
                                       AttrSet, CountingSemiring);
template AggregateResult JoinAggregate(const Hypergraph&, const Instance&, const Annotations&,
                                       AttrSet, TropicalSemiring);
template uint64_t JoinAggregateScalar(const Hypergraph&, const Instance&, const Annotations&,
                                      CountingSemiring);
template uint64_t JoinAggregateScalar(const Hypergraph&, const Instance&, const Annotations&,
                                      TropicalSemiring);
template AggregateResult JoinAggregateBruteForce(const Hypergraph&, const Instance&,
                                                 const Annotations&, AttrSet, CountingSemiring);
template AggregateResult JoinAggregateBruteForce(const Hypergraph&, const Instance&,
                                                 const Annotations&, AttrSet, TropicalSemiring);

}  // namespace coverpack
