#include "service/query_shape.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "util/hash.h"

namespace coverpack {
namespace service {

namespace {

// Domain-separation seeds so attribute colors, edge colors, and the
// individualization mark can never alias each other.
constexpr uint64_t kAttrSeed = 0xA1171B7E5EED0001ull;
constexpr uint64_t kEdgeSeed = 0xED6E5EED00000002ull;
constexpr uint64_t kIndividualizeSeed = 0x1D1A5EED00000003ull;

/// One simultaneous coloring of the incidence structure.
struct Coloring {
  std::vector<uint64_t> attr;  // per AttrId; unused attrs hold 0
  std::vector<uint64_t> edge;  // per EdgeId
};

uint32_t DistinctColorCount(const AttrSet used, const Coloring& coloring) {
  std::vector<uint64_t> all;
  all.reserve(used.size() + coloring.edge.size());
  for (AttrId a : used.ToVector()) all.push_back(coloring.attr[a]);
  for (uint64_t c : coloring.edge) all.push_back(c);
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return static_cast<uint32_t>(all.size());
}

Coloring InitialColoring(const Hypergraph& query, const AttrSet used) {
  Coloring coloring;
  coloring.attr.assign(query.num_attrs(), 0);
  coloring.edge.assign(query.num_edges(), 0);
  for (AttrId a : used.ToVector()) {
    coloring.attr[a] = HashCombine(kAttrSeed, query.AttrDegree(a));
  }
  for (EdgeId e = 0; e < query.num_edges(); ++e) {
    coloring.edge[e] = HashCombine(kEdgeSeed, query.edge(e).attrs.size());
  }
  return coloring;
}

/// One round of simultaneous refinement: every edge absorbs the sorted
/// multiset of its attributes' colors, every attribute the sorted multiset
/// of its edges' colors. Sorting makes each step invariant under renaming.
Coloring RefineOnce(const Hypergraph& query, const AttrSet used, const Coloring& coloring) {
  Coloring next;
  next.attr.assign(query.num_attrs(), 0);
  next.edge.assign(query.num_edges(), 0);
  for (EdgeId e = 0; e < query.num_edges(); ++e) {
    std::vector<uint64_t> neighbor_colors;
    for (AttrId a : query.edge(e).attrs.ToVector()) {
      neighbor_colors.push_back(coloring.attr[a]);
    }
    std::sort(neighbor_colors.begin(), neighbor_colors.end());
    next.edge[e] = HashCombine(coloring.edge[e], HashVector(neighbor_colors));
  }
  for (AttrId a : used.ToVector()) {
    std::vector<uint64_t> neighbor_colors;
    for (EdgeId e : query.EdgesContaining(a).ToVector()) {
      neighbor_colors.push_back(coloring.edge[e]);
    }
    std::sort(neighbor_colors.begin(), neighbor_colors.end());
    next.attr[a] = HashCombine(coloring.attr[a], HashVector(neighbor_colors));
  }
  return next;
}

/// Refines until the color partition stops splitting. Refinement never
/// merges classes (colors are chained hashes), so a stable distinct count
/// means a stable partition; the iteration count depends only on the
/// partition trajectory, which is itself isomorphism-invariant.
void RefineToStable(const Hypergraph& query, const AttrSet used, Coloring* coloring) {
  uint32_t distinct = DistinctColorCount(used, *coloring);
  const uint32_t max_rounds = used.size() + query.num_edges() + 2;
  for (uint32_t round = 0; round < max_rounds; ++round) {
    Coloring next = RefineOnce(query, used, *coloring);
    const uint32_t next_distinct = DistinctColorCount(used, next);
    *coloring = std::move(next);
    if (next_distinct == distinct) break;
    distinct = next_distinct;
  }
}

/// A stable hash of a whole coloring: sorted attr colors + sorted edge
/// colors, order-free on both sides.
uint64_t ColoringHash(const AttrSet used, const Coloring& coloring) {
  std::vector<uint64_t> attrs;
  for (AttrId a : used.ToVector()) attrs.push_back(coloring.attr[a]);
  std::sort(attrs.begin(), attrs.end());
  std::vector<uint64_t> edges = coloring.edge;
  std::sort(edges.begin(), edges.end());
  return HashCombine(HashVector(attrs), HashVector(edges));
}

bool HasSymmetricAttrs(const AttrSet used, const Coloring& coloring) {
  std::vector<uint64_t> attrs;
  for (AttrId a : used.ToVector()) attrs.push_back(coloring.attr[a]);
  std::sort(attrs.begin(), attrs.end());
  return std::adjacent_find(attrs.begin(), attrs.end()) != attrs.end();
}

/// Renders the edge list of a discrete attr coloring (every used attribute
/// holds a distinct color): attrs are labeled by their color rank, each edge
/// becomes its sorted label list, and the edge renderings are sorted. With
/// distinct labels this spells out the full incidence structure, so two
/// queries render equal iff they are isomorphic as hypergraphs.
std::string RenderDiscreteForm(const Hypergraph& query, const AttrSet used,
                               const Coloring& coloring) {
  std::map<uint64_t, uint32_t> attr_rank;
  for (AttrId a : used.ToVector()) attr_rank.emplace(coloring.attr[a], 0);
  uint32_t rank = 0;
  for (auto& [color, r] : attr_rank) r = rank++;

  std::vector<std::string> edge_forms;
  for (EdgeId e = 0; e < query.num_edges(); ++e) {
    std::vector<uint32_t> ranks;
    for (AttrId a : query.edge(e).attrs.ToVector()) ranks.push_back(attr_rank[coloring.attr[a]]);
    std::sort(ranks.begin(), ranks.end());
    std::ostringstream form;
    form << "(";
    for (size_t i = 0; i < ranks.size(); ++i) form << (i == 0 ? "" : " ") << "a" << ranks[i];
    form << ")";
    edge_forms.push_back(form.str());
  }
  std::sort(edge_forms.begin(), edge_forms.end());

  std::ostringstream form;
  for (size_t i = 0; i < edge_forms.size(); ++i) form << (i == 0 ? "" : ",") << edge_forms[i];
  return form.str();
}

/// Canonical labeling by branching individualization-refinement: while the
/// attr coloring has a non-singleton class, pick the class with the smallest
/// color value, individualize each member in turn, refine, and recurse; the
/// lexicographically smallest discrete rendering wins. The branch set is
/// determined by colors alone (never by attribute ids), and the minimum over
/// a class is order-free, so the result is invariant under attribute
/// renaming. Each level singles out at least one more attribute and
/// refinement never merges classes, so depth is at most the attr count;
/// branching is exponential only for highly symmetric queries, which at the
/// hypergraph sizes this service caches (single-digit attrs) stays cheap.
std::string CanonicalFormFrom(const Hypergraph& query, const AttrSet used,
                              const Coloring& coloring) {
  // Find the smallest color shared by at least two used attributes.
  std::map<uint64_t, uint32_t> multiplicity;
  for (AttrId a : used.ToVector()) ++multiplicity[coloring.attr[a]];
  uint64_t target_color = 0;
  bool discrete = true;
  for (const auto& [color, count] : multiplicity) {
    if (count >= 2) {
      target_color = color;
      discrete = false;
      break;
    }
  }
  if (discrete) return RenderDiscreteForm(query, used, coloring);

  std::string best;
  for (AttrId a : used.ToVector()) {
    if (coloring.attr[a] != target_color) continue;
    Coloring branch = coloring;
    branch.attr[a] = HashCombine(branch.attr[a], kIndividualizeSeed);
    RefineToStable(query, used, &branch);
    std::string form = CanonicalFormFrom(query, used, branch);
    if (best.empty() || form < best) best = std::move(form);
  }
  return best;
}

}  // namespace

ShapeCanon CanonicalizeShape(const Hypergraph& query) {
  const AttrSet used = query.AllAttrs();
  Coloring coloring = InitialColoring(query, used);
  RefineToStable(query, used, &coloring);

  // Plain 1-WL cannot separate some symmetric non-isomorphic pairs (one
  // 6-cycle vs. two triangles: every attr has degree 2, every edge arity 2,
  // nothing ever splits). When symmetric attributes remain, rerun the
  // refinement once per attribute with that attribute individualized and
  // fold the resulting stable-coloring hash back into its color. The
  // per-attribute signature is an invariant of the attribute's orbit, so
  // the strengthened coloring stays isomorphism-invariant.
  if (HasSymmetricAttrs(used, coloring)) {
    std::vector<uint64_t> signatures(query.num_attrs(), 0);
    for (AttrId a : used.ToVector()) {
      Coloring individualized = coloring;
      individualized.attr[a] = HashCombine(individualized.attr[a], kIndividualizeSeed);
      RefineToStable(query, used, &individualized);
      signatures[a] = ColoringHash(used, individualized);
    }
    for (AttrId a : used.ToVector()) {
      coloring.attr[a] = HashCombine(coloring.attr[a], signatures[a]);
    }
    RefineToStable(query, used, &coloring);
  }

  // Render the canonical form from a discrete canonical labeling (branching
  // individualization-refinement, lexicographic minimum). Distinct labels
  // make the rendered edge list spell out the incidence structure itself, so
  // the guard separates even color-uniform WL twins (one 6-cycle vs. two
  // triangles) whose rank renderings would coincide.
  ShapeCanon canon;
  canon.num_attrs = used.size();
  canon.num_edges = query.num_edges();
  canon.edge_colors = coloring.edge;
  std::ostringstream form;
  form << "V" << canon.num_attrs << ";E" << canon.num_edges << ";"
       << CanonicalFormFrom(query, used, coloring);
  canon.canonical_form = form.str();
  canon.hash = HashCombine(HashCombine(ColoringHash(used, coloring), canon.num_attrs),
                           canon.num_edges);
  return canon;
}

uint64_t QueryShapeHash(const Hypergraph& query) { return CanonicalizeShape(query).hash; }

bool SizesUniformPerColorClass(const ShapeCanon& canon, const Instance& instance) {
  std::map<uint64_t, uint64_t> class_size;
  for (EdgeId e = 0; e < canon.edge_colors.size(); ++e) {
    const auto [it, inserted] = class_size.emplace(canon.edge_colors[e], instance[e].size());
    if (!inserted && it->second != instance[e].size()) return false;
  }
  return true;
}

}  // namespace service
}  // namespace coverpack
