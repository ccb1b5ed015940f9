#include "core/output_balanced.h"

#include <utility>

#include "mpc/cluster.h"
#include "mpc/exchange.h"
#include "mpc/primitives.h"
#include "query/join_tree.h"
#include "relation/operators.h"
#include "relation/oracle.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/thread_pool.h"

namespace coverpack {

RunResult ComputeOutputBalanced(const Hypergraph& query, const Instance& instance, uint32_t p,
                                const OutputBalancedOptions& options) {
  instance.CheckAgainst(query);
  auto tree = JoinTree::Build(query);
  CP_CHECK(tree.has_value()) << "output-balanced Yannakakis requires an acyclic query";
  CP_CHECK_EQ(tree->Roots().size(), 1u)
      << "output-balanced baseline handles connected queries only";
  uint32_t root = tree->Roots()[0];

  Cluster cluster(p);
  uint32_t round = 0;

  // Phase 1: full semi-join reduction + bottom-up weights, all O(N/p)
  // primitives (charged as such).
  Instance reduced = SemiJoinReduce(query, *tree, instance);
  mpc::ChargeLinear(&cluster, instance.TotalSize(), round);
  mpc::ChargeLinear(&cluster, instance.TotalSize(), round + 1);
  round += 2;

  // weight[e][i] = number of extensions of row i into the subtree of e;
  // the root's weights rank the output for the slicing below.
  const std::vector<std::vector<uint64_t>> weight = SubtreeWeights(query, *tree, reduced);
  mpc::ChargeLinear(&cluster, instance.TotalSize(), round);
  round += 1;

  RunResult result;
  result.servers_used = p;
  uint64_t out = 0;
  for (uint64_t w : weight[root]) out = SaturatingAdd(out, w);
  result.output_count = out;
  if (out == 0) {
    result.rounds = round;
    result.SetLoadTracker(std::move(cluster.tracker()));
    if (options.collect) result.results = Relation(query.AllAttrs());
    return result;
  }

  // Phase 2: assign contiguous output-rank ranges of ~OUT/p to servers;
  // server k receives the root tuples of its range and, downward, every
  // child tuple joining them (one semi-join per tree edge). These receives
  // are charged for real — they are where the OUT/p term materializes.
  uint64_t per_server = CeilDiv(out, p);
  std::vector<size_t> slice_begin(p + 1, reduced[root].size());
  {
    uint64_t prefix = 0;
    uint32_t server = 0;
    slice_begin[0] = 0;
    for (size_t i = 0; i < reduced[root].size(); ++i) {
      while (server + 1 <= p - 1 &&
             prefix >= static_cast<uint64_t>(server + 1) * per_server) {
        slice_begin[++server] = i;
      }
      prefix = SaturatingAdd(prefix, weight[root][i]);
    }
    while (server < p) slice_begin[++server] = reduced[root].size();
  }

  const std::vector<uint32_t> top_down = tree->TopDown();
  // Each server's slice is independent. Pool tasks fill per-server receive
  // lists and local join results; the tracker charges and result appends
  // happen serially in server order afterwards (LoadTracker::Add resizes and
  // must not run concurrently), keeping everything thread-count-invariant.
  struct ServerOutcome {
    std::vector<uint64_t> receives;  // in charge order: root slice, then tree edges
    Relation local;
  };
  std::vector<ServerOutcome> per_server_out(p);
  ThreadPool::Global().ParallelFor(0, p, 1, [&](size_t k) {
    size_t begin = slice_begin[k];
    size_t end = slice_begin[k + 1];
    if (begin >= end) return;
    ServerOutcome& out = per_server_out[k];
    // Root slice.
    Instance needed(query);
    Relation root_slice(reduced[root].attrs());
    // The slice is a contiguous row range: one bulk copy.
    root_slice.AppendRows(reduced[root].raw().data() + begin * reduced[root].width(),
                          end - begin);
    out.receives.push_back(root_slice.size());
    needed[root] = std::move(root_slice);
    // Downward: each child restricted to tuples joining the parent slice.
    for (uint32_t node : top_down) {
      for (uint32_t child : tree->children(node)) {
        needed[child] = SemiJoin(reduced[child], needed[node]);
        out.receives.push_back(needed[child].size());
      }
    }
    if (options.collect) out.local = GenericJoin(query, needed);
  });
  mpc::ExchangePlan plan(p);
  for (uint32_t k = 0; k < p; ++k) {
    ServerOutcome& out = per_server_out[k];
    for (uint64_t amount : out.receives) plan.PlanReceive(k, amount);
    if (options.collect && !out.receives.empty()) {
      if (result.results.attrs() != query.AllAttrs()) {
        result.results = Relation(query.AllAttrs());
      }
      result.results.AppendAll(out.local);
    }
  }
  mpc::Exchange::Execute(&cluster, round, plan, "output_slices");
  round += 1;

  if (options.collect) {
    // Boundary root tuples can be shared by adjacent servers; dedup.
    if (result.results.attrs() == query.AllAttrs()) result.results.Dedup();
    result.output_count = result.results.size();
  }
  result.rounds = round;
  result.SetLoadTracker(std::move(cluster.tracker()));
  return result;
}

}  // namespace coverpack
