/// \file load_planner.h
/// \brief Chooses the load threshold L for the generic acyclic algorithm.
///
/// Theorem 2 (conservative run): L = max_{S subset E} (|subjoin(T,R,S)| / p)^(1/|S|).
/// Theorem 4 (worst-case-optimal run): L = max_{S in S(E)} (prod_{e in S} |R(e)| / p)^(1/|S|),
/// which collapses to N / p^(1/rho*) when every relation has at most N
/// tuples (Theorem 5). The benches print both planners' L side by side to
/// regenerate the Example 3.4 gap.

#ifndef COVERPACK_CORE_LOAD_PLANNER_H_
#define COVERPACK_CORE_LOAD_PLANNER_H_

#include <cstdint>
#include <vector>

#include "query/hypergraph.h"
#include "query/join_tree.h"
#include "relation/instance.h"

namespace coverpack {

/// Theorem 2's threshold: subjoin-based, maximized over all subsets of E.
uint64_t PlanLoadConservative(const Hypergraph& query, const JoinTree& tree,
                              const Instance& instance, uint32_t p);

/// Theorem 4's threshold: maximized over the family S(E) of Theorem 3.
/// Requires an alpha-acyclic query.
uint64_t PlanLoadOptimal(const Hypergraph& query, const Instance& instance, uint32_t p);

/// The same threshold from relation sizes alone (`relation_sizes[e]` =
/// |R(e)|), for callers that hold statistics rather than the instance.
uint64_t PlanLoadOptimal(const Hypergraph& query, const std::vector<uint64_t>& relation_sizes,
                         uint32_t p);

/// Theorem 5's closed form N / p^(1/rho*) (rho* integral for acyclic
/// queries), rounded up. Provided separately so benches can compare the
/// generic planner against the closed form.
uint64_t PlanLoadUniform(const Hypergraph& query, uint64_t n, uint32_t p);

/// ceil((numerator / p)^(1/k)) with saturation-safe arithmetic.
uint64_t RatioRoot(long double numerator, uint32_t p, uint32_t k);

}  // namespace coverpack

#endif  // COVERPACK_CORE_LOAD_PLANNER_H_
