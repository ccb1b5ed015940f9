/// \file output_balanced.h
/// \brief Output-balanced Yannakakis: the O(N/p + OUT/p) algorithm of [15]
/// that Section 1.3 compares against.
///
/// After a full semi-join reduction, the join results of an acyclic query
/// can be counted per root tuple (bottom-up weights) and assigned to
/// servers as contiguous rank ranges of size OUT/p. Each server then pulls
/// exactly the input fragment its range needs (the root slice plus its
/// downward semi-joins). The load is O(N/p + OUT/p) — *output-optimal*
/// when OUT = O(p * N), but when OUT approaches the AGM bound N^{rho*} the
/// load degenerates to ~N^{rho*}/p, far above Theorem 5's N/p^(1/rho*):
/// exactly the gap Table 1 and Section 1.3 point out.

#ifndef COVERPACK_CORE_OUTPUT_BALANCED_H_
#define COVERPACK_CORE_OUTPUT_BALANCED_H_

#include <cstdint>

#include "core/run_result.h"
#include "query/hypergraph.h"
#include "relation/instance.h"

namespace coverpack {

/// Options for ComputeOutputBalanced.
struct OutputBalancedOptions {
  bool collect = false;
};

/// Runs the output-balanced algorithm on p servers. The query must be
/// alpha-acyclic and *connected* (a single join-tree component; Cartesian
/// products across components are delegated to the Case II machinery of
/// the main algorithm and are out of scope for this baseline). servers_used
/// is p. output_count comes from the root's bottom-up weights, so it is
/// the join size in charge-only mode too.
///
/// Simplification vs [15]: a root tuple's extensions are not split across
/// servers, so a single root tuple heavier than OUT/p skews one server's
/// range (a constant factor on balanced instances; the benches use
/// balanced weights).
RunResult ComputeOutputBalanced(const Hypergraph& query, const Instance& instance, uint32_t p,
                                const OutputBalancedOptions& options);

}  // namespace coverpack

#endif  // COVERPACK_CORE_OUTPUT_BALANCED_H_
