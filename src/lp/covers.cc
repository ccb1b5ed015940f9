#include "lp/covers.h"

#include "lp/simplex.h"
#include "util/logging.h"

namespace coverpack {

namespace {

/// Builds the incidence constraint row for attribute v: coefficient 1 for
/// every edge containing v.
std::vector<Rational> IncidenceRow(const Hypergraph& query, AttrId v) {
  std::vector<Rational> row(query.num_edges(), Rational(0));
  for (uint32_t e = 0; e < query.num_edges(); ++e) {
    if (query.edge(e).attrs.Contains(v)) row[e] = Rational(1);
  }
  return row;
}

}  // namespace

EdgeWeighting FractionalEdgeCover(const Hypergraph& query) {
  CP_CHECK_GT(query.num_edges(), 0u);
  LinearProgram lp(query.num_edges());
  for (AttrId v : query.AllAttrs().ToVector()) {
    lp.AddGeq(IncidenceRow(query, v), Rational(1));
  }
  // Keep the polytope bounded even for attribute-free corner cases.
  std::vector<Rational> ones(query.num_edges(), Rational(1));
  lp.SetObjective(ones);
  LpResult result = lp.Minimize();
  CP_CHECK_EQ(result.status, LpStatus::kOptimal) << "edge cover LP must be feasible";
  return EdgeWeighting{result.objective, result.solution};
}

EdgeWeighting FractionalEdgePacking(const Hypergraph& query) {
  CP_CHECK_GT(query.num_edges(), 0u);
  LinearProgram lp(query.num_edges());
  for (AttrId v : query.AllAttrs().ToVector()) {
    lp.AddLeq(IncidenceRow(query, v), Rational(1));
  }
  std::vector<Rational> ones(query.num_edges(), Rational(1));
  // Packing weights are individually bounded by 1 only through vertex
  // constraints; an attribute-free edge would make the LP unbounded, so we
  // also cap each f(e) <= 1 (a packing never benefits from more: any edge
  // has at least one vertex in our hypergraphs, but the cap is harmless).
  for (uint32_t e = 0; e < query.num_edges(); ++e) {
    std::vector<Rational> row(query.num_edges(), Rational(0));
    row[e] = Rational(1);
    lp.AddLeq(row, Rational(1));
  }
  lp.SetObjective(ones);
  LpResult result = lp.Maximize();
  CP_CHECK_EQ(result.status, LpStatus::kOptimal) << "edge packing LP must be solvable";
  return EdgeWeighting{result.objective, result.solution};
}

Rational EdgeQuasiPackingNumber(const Hypergraph& query) {
  // The largest kept set U = V - x in which every attribute owns a private
  // edge (see the header). Removing few attributes first finds large U
  // early, so most later subsets fail the size test before any edge scan.
  uint32_t best = 0;
  const AttrSet all = query.AllAttrs();
  for (SubsetIterator it(all); !it.Done(); it.Next()) {
    const AttrSet kept = all.Minus(it.Current());
    if (kept.size() <= best) continue;
    AttrSet owned;
    for (const Edge& edge : query.edges()) {
      const AttrSet residual = edge.attrs.Intersect(kept);
      if (residual.size() == 1) owned = owned.Union(residual);
    }
    if (owned == kept) best = kept.size();
  }
  return Rational(best);
}

VertexWeighting FractionalVertexCover(const Hypergraph& query) {
  uint32_t num_attrs = query.num_attrs();
  CP_CHECK_GT(num_attrs, 0u);
  LinearProgram lp(num_attrs);
  for (const auto& edge : query.edges()) {
    std::vector<Rational> row(num_attrs, Rational(0));
    for (AttrId v : edge.attrs.ToVector()) row[v] = Rational(1);
    lp.AddGeq(row, Rational(1));
  }
  // Attributes outside every edge appear in no constraint and have objective
  // coefficient 0, so the minimum leaves them at 0.
  std::vector<Rational> objective(num_attrs, Rational(0));
  for (AttrId v : query.AllAttrs().ToVector()) objective[v] = Rational(1);
  lp.SetObjective(objective);
  LpResult result = lp.Minimize();
  CP_CHECK_EQ(result.status, LpStatus::kOptimal) << "vertex cover LP must be feasible";
  return VertexWeighting{result.objective, result.solution};
}

Rational RhoStar(const Hypergraph& query) { return FractionalEdgeCover(query).total; }

Rational TauStar(const Hypergraph& query) { return FractionalEdgePacking(query).total; }

bool IsIntegral(const std::vector<Rational>& weights) {
  for (const auto& w : weights) {
    if (w.den() != 1) return false;
  }
  return true;
}

bool IsHalfIntegral(const std::vector<Rational>& weights) {
  for (const auto& w : weights) {
    if (w.den() != 1 && w.den() != 2) return false;
  }
  return true;
}

Rational RhoStarOfAttrs(const Hypergraph& query, AttrSet attrs) {
  if (attrs.empty()) return Rational(0);
  LinearProgram lp(query.num_edges());
  for (AttrId v : attrs.ToVector()) {
    lp.AddGeq(IncidenceRow(query, v), Rational(1));
  }
  std::vector<Rational> ones(query.num_edges(), Rational(1));
  lp.SetObjective(ones);
  LpResult result = lp.Minimize();
  CP_CHECK_EQ(result.status, LpStatus::kOptimal);
  return result.objective;
}

}  // namespace coverpack
