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

#include "mpc/load_tracker.h"
#include "query/hypergraph.h"
#include "relation/instance.h"

namespace coverpack {

/// Outcome of a one-round run.
struct OneRoundResult {
  Relation results;          ///< join results (collect mode)
  uint64_t output_count = 0;
  uint64_t max_load = 0;     ///< max tuples received by one server
  uint64_t servers_used = 0;
  uint32_t rounds = 1;
  /// Concatenated per-server loads of every sub-hypercube the run fired
  /// (all in round 0; disjoint server ranges). Source for the telemetry
  /// layer's skew profiles.
  LoadTracker load_tracker{1};
};

/// Options for the one-round algorithm.
struct OneRoundOptions {
  bool collect = true;
};

/// Computes the join in one communication round on p servers, splitting
/// heavy values off into residual-query hypercubes: a value is heavy when
/// its degree exceeds 2 * |R| / share. Works for any query (acyclic or
/// cyclic).
OneRoundResult ComputeOneRoundSkewAware(const Hypergraph& query, const Instance& instance,
                                        uint32_t p, const OneRoundOptions& options);

/// Vanilla one-round HyperCube (no skew handling) for comparison.
OneRoundResult ComputeOneRoundVanilla(const Hypergraph& query, const Instance& instance,
                                      uint32_t p, bool collect);

}  // namespace coverpack

#endif  // COVERPACK_CORE_ONE_ROUND_H_
