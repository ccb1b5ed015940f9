/// \file acyclic_join.h
/// \brief The paper's multi-round generic algorithm for alpha-acyclic joins
/// (Sections 3 and 4).
///
/// The algorithm recursively decomposes the join along its join tree:
///
///  * reduce — remove dangling tuples by semi-joins and relations contained
///    in other relations (Section 3.1, Case I preamble);
///  * Case I — pick a join attribute x and a set S^x of relations
///    containing x; split dom(x) into *heavy* values (degree > L in some
///    relation of S^x, each handled by recursing on the residual query Q_x)
///    and *light* groups (parallel-packed to total degree O(L), broadcast
///    to the group's servers while the rest of the query recurses as Q_y);
///  * Case II — when the join forest has several components, compute their
///    Cartesian product on a grid of server groups.
///
/// Two runs of the same skeleton differ only in the choice policy and the
/// threshold planner: the *conservative* run uses S^x = {e1} (a single
/// leaf) and Theorem 2's subjoin-based L; the *optimal* run uses
/// S^x = E_x (every relation containing x — the aggressive choice Section
/// 3.3 calls for) and Theorem 4's S(E)-based L, which is N / p^(1/rho*)
/// for uniform relation sizes (Theorem 5).
///
/// The simulation charges every data placement for real (scatter of
/// subinstances, broadcasts to light groups, grid replication) and charges
/// the O(N/p) statistics primitives their proven cost; see DESIGN.md.

#ifndef COVERPACK_CORE_ACYCLIC_JOIN_H_
#define COVERPACK_CORE_ACYCLIC_JOIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/run_result.h"
#include "query/hypergraph.h"
#include "relation/instance.h"

namespace coverpack {

/// Which run of the generic algorithm to execute (Section 3.2 vs 4.1).
enum class RunPolicy {
  kConservative,  ///< S^x = {e1}; L from Theorem 2 (subjoin-based)
  kOptimal,       ///< S^x = E_x;  L from Theorem 4 (S(E)-based)
};

/// Options for ComputeAcyclicJoin.
struct AcyclicRunOptions {
  RunPolicy policy = RunPolicy::kOptimal;
  bool collect = true;        ///< materialize and return the join results
  uint64_t load_threshold = 0;  ///< L; 0 = plan automatically for `p`
  uint32_t p = 64;            ///< server budget used by the planner
  bool trace = false;         ///< record the decomposition decisions
};

/// One recursion event of a traced run.
struct TraceEvent {
  int depth = 0;
  enum Kind { kBaseCase, kCaseOne, kCaseTwo } kind = kBaseCase;
  std::string query;          ///< the (reduced) subquery at this level
  std::string attribute;      ///< Case I: the chosen attribute x
  std::string choice_set;     ///< Case I: the relations of S^x
  uint32_t heavy_values = 0;  ///< Case I: |H(x, S^x)|
  uint32_t light_groups = 0;  ///< Case I: number of parallel-packed groups
  uint32_t components = 0;    ///< Case II: number of Cartesian components
  uint64_t input_tuples = 0;  ///< total input of this subquery
};

/// Outcome of a run: the common RunResult (load_threshold is the L the run
/// was executed with; servers_used is its cluster's p) plus the trace.
struct AcyclicRunResult : RunResult {
  std::vector<TraceEvent> trace;  ///< populated when options.trace is set
};

/// Renders a trace as an indented decomposition tree.
std::string TraceToString(const std::vector<TraceEvent>& trace);

/// Computes Q(R) with the generic multi-round algorithm. The query must be
/// alpha-acyclic. Results are verified against the sequential oracle in
/// tests. The paper experiments run with collect = false and read the load
/// statistics; bench/perf's acyclic_skew workload collects and checks the
/// results. In collect mode each Case I level counts its subqueries' rows,
/// allocates its results once and writes every row once, straight into
/// its slice.
AcyclicRunResult ComputeAcyclicJoin(const Hypergraph& query, const Instance& instance,
                                    const AcyclicRunOptions& options);

/// Theoretical number of servers needed to run this instance at load L
/// (the max-form of Theorem 1's / Theorem 3's Psi bounds): a prediction
/// to set beside a run's servers_used. The tests check it falls as L
/// grows; no bench reports it.
uint64_t TheoreticalServerDemand(const Hypergraph& query, const Instance& instance,
                                 uint64_t load_threshold, RunPolicy policy);

}  // namespace coverpack

#endif  // COVERPACK_CORE_ACYCLIC_JOIN_H_
