#include "core/load_planner.h"

#include <cmath>

#include "lp/covers.h"
#include "query/decomposition.h"
#include "relation/oracle.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace coverpack {

uint64_t RatioRoot(long double numerator, uint32_t p, uint32_t k) {
  CP_CHECK_GE(k, 1u);
  long double ratio = numerator / static_cast<long double>(p);
  if (ratio <= 1.0L) return 1;
  long double root = std::pow(ratio, 1.0L / static_cast<long double>(k));
  uint64_t candidate = static_cast<uint64_t>(root);
  // Nudge to the exact ceiling: smallest L with L^k * p >= numerator.
  while (std::pow(static_cast<long double>(candidate), static_cast<long double>(k)) *
             static_cast<long double>(p) <
         numerator) {
    ++candidate;
  }
  return std::max<uint64_t>(1, candidate);
}

uint64_t PlanLoadConservative(const Hypergraph& query, const JoinTree& tree,
                              const Instance& instance, uint32_t p) {
  uint64_t best = 1;
  for (SubsetIterator it(query.AllEdges()); !it.Done(); it.Next()) {
    EdgeSet s = it.Current();
    if (s.empty()) continue;
    uint64_t subjoin = SubjoinSize(query, tree, instance, s);
    best = std::max(best, RatioRoot(static_cast<long double>(subjoin), p, s.size()));
  }
  return best;
}

uint64_t PlanLoadOptimal(const Hypergraph& query, const Instance& instance, uint32_t p) {
  std::vector<uint64_t> sizes;
  sizes.reserve(query.num_edges());
  for (EdgeId e = 0; e < query.num_edges(); ++e) sizes.push_back(instance[e].size());
  return PlanLoadOptimal(query, sizes, p);
}

uint64_t PlanLoadOptimal(const Hypergraph& query, const std::vector<uint64_t>& relation_sizes,
                         uint32_t p) {
  CP_CHECK_EQ(relation_sizes.size(), query.num_edges());
  uint64_t best = 1;
  for (EdgeSet s : SFamily(query)) {
    if (s.empty()) continue;
    long double product = 1.0L;
    for (EdgeId e : s.ToVector()) {
      product *= static_cast<long double>(relation_sizes[e]);
    }
    best = std::max(best, RatioRoot(product, p, s.size()));
  }
  return best;
}

uint64_t PlanLoadUniform(const Hypergraph& query, uint64_t n, uint32_t p) {
  Rational rho = RhoStar(query);
  CP_CHECK(rho.is_integer()) << "PlanLoadUniform expects an acyclic query (integral rho*)";
  uint32_t k = static_cast<uint32_t>(rho.num());
  long double numerator = std::pow(static_cast<long double>(n), static_cast<long double>(k));
  return RatioRoot(numerator, p, k);
}

}  // namespace coverpack
