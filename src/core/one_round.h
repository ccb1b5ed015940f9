/// \file one_round.h
/// \brief Skew-aware single-round join in the spirit of [19] (BinHC).
///
/// Vanilla HyperCube collapses under skew: all tuples of a heavy value hash
/// to one grid slice. The one-round algorithm of [19] fixes this by binning
/// dom(x) by degree and running a residual-query hypercube per bin, reaching
/// load ~N / p^(1/psi*) in the worst case (psi* = edge quasi-packing number).
/// We implement the same heavy/residual decomposition; all sub-hypercubes
/// fire in the same communication round on disjoint server groups (the
/// degree statistics that steer them are free in the lower-bound model and
/// O(N/p) to compute with reduce-by-key).

#ifndef COVERPACK_CORE_ONE_ROUND_H_
#define COVERPACK_CORE_ONE_ROUND_H_

#include <cstdint>
#include <functional>

#include "core/run_result.h"
#include "mpc/hypercube.h"
#include "query/hypergraph.h"
#include "relation/instance.h"

namespace coverpack {

/// The one-round runs' old result name, kept for bench/perf.
using OneRoundResult = RunResult;

/// Options for the one-round algorithm.
struct OneRoundOptions {
  bool collect = true;
};

/// Computes the join in one communication round on p servers, splitting
/// heavy values off into residual-query hypercubes: a value is heavy when
/// its degree exceeds 2 * |R| / share. Works for any query (acyclic or
/// cyclic). Every sub-hypercube fires in round 0 on its own server range;
/// the load tracker concatenates their per-server loads, and servers_used
/// sums their grid sizes.
RunResult ComputeOneRoundSkewAware(const Hypergraph& query, const Instance& instance,
                                   uint32_t p, const OneRoundOptions& options);

/// The split decision of one work item of the skew-aware algorithm.
struct SkewChoice {
  bool skewed = false;  ///< some value's degree exceeds 2 * |R| / share
  AttrId attr = 0;      ///< the attribute to split on, when skewed
  double ratio = 0.0;   ///< its worst degree over 2 * |R| / share
};

/// Picks the attribute to split on: over every (attribute, relation) pair
/// whose attribute has share > 1, the pair whose most frequent value
/// exceeds 2 * |R| / share by the largest ratio, the first such pair in
/// attribute-then-edge order on a tie. Each pair's max degree is its own
/// task on the global pool; the decision does not depend on the thread
/// count.
SkewChoice FindWorstSkew(const Hypergraph& query, const Instance& instance,
                         const mpc::ShareVector& shares);

/// ComputeOneRoundSkewAware with `find_skew` deciding every split in place
/// of FindWorstSkew: the test seam that holds the production decisions to a
/// reference scan's.
using SkewFinder =
    std::function<SkewChoice(const Hypergraph&, const Instance&, const mpc::ShareVector&)>;
RunResult ComputeOneRoundSkewAwareWith(const Hypergraph& query, const Instance& instance,
                                       uint32_t p, const OneRoundOptions& options,
                                       const SkewFinder& find_skew);

/// Vanilla one-round HyperCube (no skew handling) for comparison.
/// servers_used is its grid size.
RunResult ComputeOneRoundVanilla(const Hypergraph& query, const Instance& instance, uint32_t p,
                                 bool collect);

}  // namespace coverpack

#endif  // COVERPACK_CORE_ONE_ROUND_H_
