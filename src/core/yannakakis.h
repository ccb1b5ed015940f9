/// \file yannakakis.h
/// \brief Parallel Yannakakis baseline for acyclic joins.
///
/// The classical algorithm (Section 1.3): a full semi-join reduction over
/// the join tree followed by bottom-up pairwise joins, each implemented as
/// a hash repartition on the shared attributes. Its load is O(N/p + OUT/p)
/// on friendly instances but degenerates toward OUT/p ~ N^rho*/p when the
/// output approaches the AGM bound — the gap to N / p^(1/rho*) that the
/// paper's algorithm closes.

#ifndef COVERPACK_CORE_YANNAKAKIS_H_
#define COVERPACK_CORE_YANNAKAKIS_H_

#include <cstdint>

#include "core/run_result.h"
#include "query/hypergraph.h"
#include "relation/instance.h"

namespace coverpack {

/// Runs parallel Yannakakis on p servers. The query must be alpha-acyclic.
/// Intermediate joins drive the communication, so they are built in both
/// modes. With `collect` unset, the last join of each join-tree component
/// is routed charge-only: it is charged like the collecting run's, but its
/// rows are never built or gathered, and output_count is 0. servers_used
/// is p.
RunResult ComputeYannakakis(const Hypergraph& query, const Instance& instance, uint32_t p,
                            bool collect);

}  // namespace coverpack

#endif  // COVERPACK_CORE_YANNAKAKIS_H_
