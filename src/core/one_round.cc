#include "core/one_round.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "mpc/cluster.h"
#include "mpc/hypercube.h"
#include "relation/operators.h"
#include "relation/oracle.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/thread_pool.h"

namespace coverpack {

namespace {

/// A value is heavy when its degree exceeds kSkewFactor * |R| / share.
constexpr double kSkewFactor = 2.0;

/// A pending piece of work: a (residual) query, its instance, a server
/// budget, and the constant bindings to re-attach at emission.
struct WorkItem {
  Hypergraph query;
  Instance instance;
  uint32_t budget;
  std::vector<std::pair<AttrId, Value>> bindings;
  int depth;
};

/// Heavy values of `attr`: degree above kSkewFactor * |R| / share in some
/// relation containing it.
std::vector<Value> HeavyValues(const Hypergraph& query, const Instance& instance,
                               const mpc::ShareVector& shares, AttrId attr) {
  std::vector<Value> heavy;
  uint32_t share = std::max<uint32_t>(2, shares.shares[attr]);
  for (uint32_t e = 0; e < query.num_edges(); ++e) {
    if (!query.edge(e).attrs.Contains(attr)) continue;
    double threshold =
        kSkewFactor * static_cast<double>(instance[e].size()) / static_cast<double>(share);
    for (const auto& [value, degree] : DegreeHistogram(instance[e], attr)) {
      if (static_cast<double>(degree) > threshold) heavy.push_back(value);
    }
  }
  std::sort(heavy.begin(), heavy.end());
  heavy.erase(std::unique(heavy.begin(), heavy.end()), heavy.end());
  return heavy;
}

}  // namespace

namespace {

/// Relation sizes of an instance, for the size-aware share optimizer.
std::vector<uint64_t> SizesOf(const Instance& instance) {
  std::vector<uint64_t> sizes;
  sizes.reserve(instance.num_relations());
  for (size_t e = 0; e < instance.num_relations(); ++e) sizes.push_back(instance[e].size());
  return sizes;
}

}  // namespace

SkewChoice FindWorstSkew(const Hypergraph& query, const Instance& instance,
                         const mpc::ShareVector& shares) {
  // The (attribute, relation) pairs a hash bucket could overload, in
  // attribute-then-edge order; a single bucket cannot be overloaded.
  struct Pair {
    AttrId attr;
    EdgeId edge;
    uint64_t max_degree = 0;
  };
  std::vector<Pair> pairs;
  for (AttrId v : query.AllAttrs().ToVector()) {
    if (shares.shares[v] <= 1) continue;
    for (EdgeId e = 0; e < query.num_edges(); ++e) {
      if (query.edge(e).attrs.Contains(v)) pairs.push_back(Pair{v, e});
    }
  }
  // One pool task per pair; the fold below reads the degrees in pair order,
  // so the choice never depends on the thread count.
  ThreadPool::Global().ParallelFor(0, pairs.size(), 1, [&](size_t k) {
    Pair& pair = pairs[k];
    for (const auto& [value, degree] : DegreeHistogram(instance[pair.edge], pair.attr)) {
      pair.max_degree = std::max(pair.max_degree, degree);
    }
  });
  // A pair's worst ratio is its max degree over the pair's threshold; the
  // strict test keeps the first pair of the highest ratio.
  SkewChoice choice;
  for (const Pair& pair : pairs) {
    const double threshold = kSkewFactor * static_cast<double>(instance[pair.edge].size()) /
                             static_cast<double>(shares.shares[pair.attr]);
    const double ratio = static_cast<double>(pair.max_degree) / std::max(threshold, 1.0);
    if (ratio > 1.0 && ratio > choice.ratio) {
      choice.skewed = true;
      choice.attr = pair.attr;
      choice.ratio = ratio;
    }
  }
  return choice;
}

RunResult ComputeOneRoundVanilla(const Hypergraph& query, const Instance& instance, uint32_t p,
                                 bool collect) {
  Cluster cluster(p);
  mpc::ShareVector shares = mpc::OptimizeSharesForSizes(query, SizesOf(instance), p);
  mpc::HypercubeResult hc = mpc::HypercubeJoin(&cluster, query, instance, shares, 0, collect);
  RunResult result;
  result.output_count = hc.output_count;
  result.rounds = 1;
  result.servers_used = shares.grid_size;
  result.SetLoadTracker(std::move(cluster.tracker()));
  if (collect) result.results = hc.results.Gather();
  return result;
}

RunResult ComputeOneRoundSkewAware(const Hypergraph& query, const Instance& instance,
                                   uint32_t p, const OneRoundOptions& options) {
  return ComputeOneRoundSkewAwareWith(query, instance, p, options, FindWorstSkew);
}

RunResult ComputeOneRoundSkewAwareWith(const Hypergraph& query, const Instance& instance,
                                       uint32_t p, const OneRoundOptions& options,
                                       const SkewFinder& find_skew) {
  instance.CheckAgainst(query);
  RunResult result;
  result.results = Relation(query.AllAttrs());

  // Every leaf work item becomes one hypercube; all fire at round 0 on
  // disjoint server ranges, so the whole computation is one round.
  uint64_t servers = 0;
  // Leaf trackers, concatenated into result.load_tracker at the end so the
  // telemetry layer sees the round-0 load distribution across the whole
  // (disjoint-group) cluster.
  std::vector<LoadTracker> leaf_trackers;

  /// What processing one work item produced: either a leaf hypercube or a
  /// list of split-off items for the next frontier. Filled by pool tasks,
  /// harvested in frontier index order — the frontier sequence depends only
  /// on the input, never on the thread count.
  struct Outcome {
    bool is_leaf = false;
    uint64_t leaf_servers = 0;
    std::optional<LoadTracker> tracker;
    Relation local;  // collect-mode leaf output, bindings re-attached
    std::vector<WorkItem> spawned;
  };

  std::vector<WorkItem> frontier;
  frontier.push_back(WorkItem{query, instance, std::max<uint32_t>(1, p), {}, 0});

  while (!frontier.empty()) {
    std::vector<Outcome> outcomes(frontier.size());
    ThreadPool::Global().ParallelFor(0, frontier.size(), 1, [&](size_t w) {
      const WorkItem& item = frontier[w];
      Outcome& out = outcomes[w];

      // Empty relation -> nothing to do for this piece.
      for (uint32_t e = 0; e < item.query.num_edges(); ++e) {
        if (item.instance[e].empty()) return;
      }

      mpc::ShareVector shares =
          mpc::OptimizeSharesForSizes(item.query, SizesOf(item.instance), item.budget);
      const bool splittable = item.depth < 32 && item.budget > 1;
      const SkewChoice skew =
          splittable ? find_skew(item.query, item.instance, shares) : SkewChoice();

      if (!skew.skewed) {
        Cluster cluster(std::max<uint32_t>(1, item.budget));
        mpc::HypercubeResult hc = mpc::HypercubeJoin(&cluster, item.query, item.instance,
                                                     shares, 0, options.collect);
        out.is_leaf = true;
        out.leaf_servers = shares.grid_size;
        out.tracker = cluster.tracker();
        if (options.collect) {
          Relation local = hc.results.Gather();
          for (const auto& [attr, value] : item.bindings) {
            local = AttachConstant(local, attr, value);
          }
          out.local = std::move(local);
        }
        return;
      }

      // Split dom(skew_attr) into heavy values (residual query each) and the
      // light remainder (same query, heavy values removed).
      const AttrId skew_attr = skew.attr;
      std::vector<Value> heavy = HeavyValues(item.query, item.instance, shares, skew_attr);
      CP_CHECK(!heavy.empty());

      uint32_t half = std::max<uint32_t>(1, item.budget / 2);
      // Light remainder keeps half the budget.
      WorkItem light{item.query, Instance(item.query), half, item.bindings, item.depth + 1};
      for (uint32_t e = 0; e < item.query.num_edges(); ++e) {
        const Relation& source = item.instance[e];
        if (source.attrs().Contains(skew_attr)) {
          light.instance[e] = SelectNotIn(source, skew_attr, heavy);
        } else {
          light.instance[e] = source;
        }
      }
      out.spawned.push_back(std::move(light));

      // Heavy values share the other half of the budget evenly.
      uint32_t per_value = std::max<uint32_t>(
          1, half / static_cast<uint32_t>(std::max<size_t>(1, heavy.size())));
      Hypergraph residual = item.query.Residual(AttrSet::Single(skew_attr));
      for (Value a : heavy) {
        std::optional<Instance> heavy_instance =
            ResidualInstance(item.query, item.instance, residual, skew_attr, a);
        if (!heavy_instance) continue;  // not viable
        WorkItem heavy_item{residual, std::move(*heavy_instance), per_value, item.bindings,
                            item.depth + 1};
        heavy_item.bindings.emplace_back(skew_attr, a);
        out.spawned.push_back(std::move(heavy_item));
      }
    });

    // Harvest in frontier order: leaves accumulate, split items form the
    // next frontier in the order they were spawned.
    std::vector<WorkItem> next_frontier;
    for (Outcome& out : outcomes) {
      if (out.is_leaf) {
        servers += out.leaf_servers;
        leaf_trackers.push_back(std::move(*out.tracker));
        if (options.collect) {
          // The bindings restore every attribute removed along the residual
          // chain, so the schema is back to the full query's.
          if (out.local.attrs() == result.results.attrs()) {
            result.results.AppendAll(out.local);
            result.output_count += out.local.size();
          } else if (!out.local.empty()) {
            CP_CHECK(false) << "one-round result schema mismatch";
          }
        }
      } else {
        for (WorkItem& item : out.spawned) next_frontier.push_back(std::move(item));
      }
    }
    frontier = std::move(next_frontier);
  }

  result.servers_used = servers;
  result.rounds = 1;
  uint64_t tracker_servers = 0;
  for (const LoadTracker& leaf : leaf_trackers) tracker_servers += leaf.num_servers();
  LoadTracker tracker(static_cast<uint32_t>(std::max<uint64_t>(1, tracker_servers)));
  uint32_t offset = 0;
  for (const LoadTracker& leaf : leaf_trackers) {
    tracker.Merge(leaf, offset, /*round_offset=*/0);
    offset += leaf.num_servers();
  }
  result.SetLoadTracker(std::move(tracker));
  return result;
}

}  // namespace coverpack
