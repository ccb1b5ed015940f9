#include "core/acyclic_join.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "core/load_planner.h"
#include "mpc/cluster.h"
#include "mpc/exchange.h"
#include "mpc/primitives.h"
#include "query/decomposition.h"
#include "query/join_tree.h"
#include "relation/operators.h"
#include "relation/oracle.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/thread_pool.h"

namespace coverpack {

namespace {

/// Hard cap on servers a recursion level may allocate; hitting it means L
/// was chosen absurdly small for the instance.
constexpr uint64_t kMaxServers = uint64_t{1} << 24;

/// Result of one recursive invocation: the subquery's results (collect
/// mode) plus its own cluster whose tracker the parent merges.
struct SubRun {
  Relation results;
  std::unique_ptr<Cluster> cluster;
  uint32_t rounds = 0;
};

/// The recursive engine. One instance per ComputeAcyclicJoin call.
///
/// Subqueries (heavy values, light groups, Cartesian components) run in
/// parallel on the global pool. Every parallel child gets a private trace
/// buffer and a private cluster; the parent splices/merges them in child
/// index order, so traces, trackers, and results are byte-identical to the
/// serial execution at any thread count.
class Engine {
 public:
  Engine(RunPolicy policy, bool collect, uint64_t load_threshold)
      : policy_(policy), collect_(collect), load_(load_threshold) {
    CP_CHECK_GE(load_, 1u);
  }

  /// \param trace the sink this subtree's events go to (nullptr = tracing
  /// off). Passed explicitly — not a member — so concurrent subtrees can
  /// record into disjoint buffers.
  SubRun Run(Hypergraph query, Instance instance, bool charge_input, int depth,
             std::vector<TraceEvent>* trace);

 private:
  SubRun CaseOne(const Hypergraph& query, const Instance& instance, const JoinTree& tree,
                 uint32_t stats_rounds, int depth, std::vector<TraceEvent>* trace);
  SubRun CaseTwo(const Hypergraph& query, const Instance& instance,
                 const std::vector<EdgeSet>& components, uint32_t stats_rounds, int depth,
                 std::vector<TraceEvent>* trace);

  static void Record(TraceEvent event, std::vector<TraceEvent>* trace) {
    if (trace != nullptr) trace->push_back(std::move(event));
  }

  RunPolicy policy_;
  bool collect_;
  uint64_t load_;
};

/// One parallel subquery's outcome: filled in by a pool task, consumed by
/// the parent in child index order. In collect mode a slot also keeps its
/// share of the parent's results unwritten, with its row count: a heavy
/// value keeps the child's rows and x = a, and a light group keeps its
/// pending last join and the broadcast parts that join borrows.
struct ChildSlot {
  bool viable = false;
  SubRun child;
  std::vector<TraceEvent> trace;
  size_t rows = 0;
  Value heavy_value = 0;
  std::vector<Relation> broadcast;
  std::optional<PendingJoin> pending;

  /// Keeps a light group's broadcast parts and counts their join with
  /// `child_results` (null when the group has no child), which must be over
  /// `attrs`.
  void PendJoin(std::vector<Relation> parts, const Relation* child_results, AttrSet attrs) {
    broadcast = std::move(parts);
    std::vector<const Relation*> inputs;
    if (child_results != nullptr) inputs.push_back(child_results);
    for (const Relation& part : broadcast) inputs.push_back(&part);
    pending.emplace(inputs);
    CP_CHECK(pending->attrs() == attrs);
    rows = pending->size();
  }

  /// Writes the slot's rows to `dst` and returns how many it wrote.
  size_t WriteInto(AttrId x, Value* dst) const {
    if (pending.has_value()) return pending->WriteInto(dst);
    AttachConstantInto(child.results, x, heavy_value, dst);
    return child.results.size();
  }
};

/// Applies the reduce step: full semi-join reduction plus removal of
/// subsumed relations (tracked as formula charges by the caller). Returns
/// the reduced (query, instance) pair.
std::pair<Hypergraph, Instance> ReduceStep(const Hypergraph& query, const JoinTree& tree,
                                           const Instance& instance) {
  Instance reduced = SemiJoinReduce(query, tree, instance);
  // Drop relations contained in other relations, after filtering the
  // container by a semi-join (Section 3.1 Case I).
  EdgeSet kept = query.AllEdges();
  bool changed = true;
  while (changed) {
    changed = false;
    for (EdgeId small : kept.ToVector()) {
      for (EdgeId big : kept.ToVector()) {
        if (small == big) continue;
        if (query.edge(small).attrs.IsSubsetOf(query.edge(big).attrs)) {
          reduced[big] = SemiJoin(reduced[big], reduced[small]);
          kept.Remove(small);
          changed = true;
          break;
        }
      }
      if (changed) break;
    }
  }
  Hypergraph new_query = query.InducedByEdges(kept);
  Instance new_instance(new_query);
  std::vector<EdgeId> kept_ids = kept.ToVector();
  for (size_t i = 0; i < kept_ids.size(); ++i) {
    new_instance[static_cast<EdgeId>(i)] = std::move(reduced[kept_ids[i]]);
  }
  return {std::move(new_query), std::move(new_instance)};
}

/// Charges ceil(size/p) per relation to every server: the receive cost of
/// distributing a fresh subinstance round-robin over a child group. One
/// Exchange accumulating the per-relation linear charges.
void ChargeInputScatter(Cluster* cluster, const Instance& instance, uint32_t round) {
  mpc::ExchangePlan plan(cluster->p());
  for (size_t e = 0; e < instance.num_relations(); ++e) {
    plan.PlanLinear(instance[e].size());
  }
  if (plan.total_planned() == 0) return;
  mpc::Exchange::Execute(cluster, round, plan, "input_scatter");
}

SubRun MakeEmptyRun(AttrSet schema) {
  SubRun run;
  run.results = Relation(schema);
  run.cluster = std::make_unique<Cluster>(1);
  run.rounds = 0;
  return run;
}

}  // namespace

uint64_t TheoreticalServerDemand(const Hypergraph& query, const Instance& instance,
                                 uint64_t load_threshold, RunPolicy policy) {
  auto tree = JoinTree::Build(query);
  CP_CHECK(tree.has_value());
  long double best = 1.0L;
  long double load = static_cast<long double>(load_threshold);
  // Enough servers to hold every relation at load L.
  for (size_t e = 0; e < instance.num_relations(); ++e) {
    best = std::max(best, static_cast<long double>(instance[e].size()) / load);
  }
  if (policy == RunPolicy::kConservative) {
    for (SubsetIterator it(query.AllEdges()); !it.Done(); it.Next()) {
      EdgeSet s = it.Current();
      if (s.empty()) continue;
      long double subjoin =
          static_cast<long double>(SubjoinSize(query, *tree, instance, s));
      long double psi = subjoin / std::pow(load, static_cast<long double>(s.size()));
      best = std::max(best, psi);
    }
  } else {
    for (EdgeSet s : SFamily(query)) {
      if (s.empty()) continue;
      long double product = 1.0L;
      for (EdgeId e : s.ToVector()) product *= static_cast<long double>(instance[e].size());
      long double psi = product / std::pow(load, static_cast<long double>(s.size()));
      best = std::max(best, psi);
    }
  }
  uint64_t demand = static_cast<uint64_t>(std::ceil(best));
  return std::max<uint64_t>(1, demand);
}

namespace {

SubRun Engine::Run(Hypergraph query, Instance instance, bool charge_input, int depth,
                   std::vector<TraceEvent>* trace) {
  CP_CHECK_LT(depth, 128) << "recursion failed to terminate";
  instance.CheckAgainst(query);

  // Empty relations mean an empty join.
  for (uint32_t e = 0; e < query.num_edges(); ++e) {
    if (instance[e].empty()) return MakeEmptyRun(query.AllAttrs());
  }

  auto tree = JoinTree::Build(query);
  CP_CHECK(tree.has_value()) << "query must stay acyclic: " << query.ToString();

  // Reduce (semi-join reduction + subsumed-edge removal). Charged as a
  // constant number of O(N/p) rounds below, once the cluster exists.
  auto [reduced_query, reduced_instance] = ReduceStep(query, *tree, instance);
  query = std::move(reduced_query);
  instance = std::move(reduced_instance);
  for (uint32_t e = 0; e < query.num_edges(); ++e) {
    if (instance[e].empty()) return MakeEmptyRun(query.AllAttrs());
  }
  tree = JoinTree::Build(query);
  CP_CHECK(tree.has_value());

  uint32_t stats_rounds = charge_input ? 1 : 0;  // round 0: input scatter
  uint32_t reduce_rounds = 2;                    // semi-join reduction passes
  stats_rounds += reduce_rounds;

  // Base case: a single relation; emit directly.
  if (query.num_edges() == 1) {
    TraceEvent event;
    event.depth = depth;
    event.kind = TraceEvent::kBaseCase;
    event.query = query.ToString();
    event.input_tuples = instance.TotalSize();
    Record(std::move(event), trace);
    uint64_t servers = std::max<uint64_t>(1, CeilDiv(instance[0].size(), load_));
    SubRun run;
    run.cluster = std::make_unique<Cluster>(static_cast<uint32_t>(servers));
    if (charge_input) ChargeInputScatter(run.cluster.get(), instance, 0);
    mpc::ChargeLinear(run.cluster.get(), instance[0].size(), charge_input ? 1 : 0);
    run.rounds = stats_rounds;
    if (collect_) run.results = instance[0];
    return run;
  }

  std::vector<EdgeSet> components = tree->Components();
  if (components.size() > 1) {
    TraceEvent event;
    event.depth = depth;
    event.kind = TraceEvent::kCaseTwo;
    event.query = query.ToString();
    event.components = static_cast<uint32_t>(components.size());
    event.input_tuples = instance.TotalSize();
    Record(std::move(event), trace);
    SubRun run = CaseTwo(query, instance, components, stats_rounds, depth, trace);
    if (charge_input) ChargeInputScatter(run.cluster.get(), instance, 0);
    mpc::ChargeLinear(run.cluster.get(), instance.TotalSize(), charge_input ? 1 : 0);
    return run;
  }

  // Case I. The cluster is created inside (its size depends on the
  // children); stats charges are applied there.
  SubRun run = CaseOne(query, instance, *tree, stats_rounds, depth, trace);
  if (charge_input) ChargeInputScatter(run.cluster.get(), instance, 0);
  return run;
}

SubRun Engine::CaseOne(const Hypergraph& query, const Instance& instance, const JoinTree& tree,
                       uint32_t stats_rounds, int depth, std::vector<TraceEvent>* trace) {
  // ---- Choose the leaf e1, its parent e0, the attribute x, and S^x. ----
  uint32_t e1 = JoinTree::kNoParent;
  for (uint32_t node = 0; node < tree.num_nodes(); ++node) {
    if (tree.IsLeaf(node) && tree.parent(node) != JoinTree::kNoParent) {
      e1 = node;
      break;
    }
  }
  CP_CHECK(e1 != JoinTree::kNoParent) << "connected tree with >= 2 nodes has a leaf";
  uint32_t e0 = tree.parent(e1);
  AttrSet shared = query.edge(e1).attrs.Intersect(query.edge(e0).attrs);
  CP_CHECK(!shared.empty()) << "tree edge without shared attribute";
  AttrId x = shared.First();

  EdgeSet sx;
  if (policy_ == RunPolicy::kOptimal) {
    sx = query.EdgesContaining(x);  // E_x: the aggressive choice
  } else {
    sx = EdgeSet::Single(e1);  // the conservative choice of Section 3.2
  }
  CP_CHECK(sx.Contains(e1));

  // ---- Step 1: degree statistics over x in the relations of S^x. ----
  // Heavy: degree > L in at least one relation of S^x. DegreeHistogram
  // returns value-sorted runs, so the per-value max/total over S^x is a
  // sort + run-length merge — no hash maps, and heavy/light come out
  // value-sorted for free. `weights[i]` is the total degree of light[i]
  // (the packing weight).
  uint64_t sx_total_size = 0;
  std::vector<std::pair<Value, uint64_t>> degree_pairs;
  for (EdgeId e : sx.ToVector()) {
    sx_total_size += instance[e].size();
    auto histogram = DegreeHistogram(instance[e], x);
    degree_pairs.insert(degree_pairs.end(), histogram.begin(), histogram.end());
  }
  std::sort(degree_pairs.begin(), degree_pairs.end());
  std::vector<Value> heavy;
  std::vector<Value> light;
  std::vector<uint64_t> weights;  // total degree per light value
  for (size_t i = 0; i < degree_pairs.size();) {
    const Value value = degree_pairs[i].first;
    uint64_t max_degree = 0;
    uint64_t total_degree = 0;
    size_t run = i;
    while (run < degree_pairs.size() && degree_pairs[run].first == value) {
      max_degree = std::max(max_degree, degree_pairs[run].second);
      total_degree += degree_pairs[run].second;
      ++run;
    }
    if (max_degree > load_) {
      heavy.push_back(value);
    } else {
      light.push_back(value);
      weights.push_back(total_degree);
    }
    i = run;
  }

  // Light groups via parallel-packing on total degree, capacity |S^x| * L.
  // Every light value has degree <= L in each relation of S^x, so its
  // weight fits the capacity. The packing round is charged with the
  // statistics rounds once the cluster exists.
  uint64_t capacity = std::max<uint64_t>(1, static_cast<uint64_t>(sx.size()) * load_);
  const std::vector<uint32_t> bin_of = mpc::ParallelPack(weights, capacity);
  const uint32_t num_groups =
      bin_of.empty() ? 0 : *std::max_element(bin_of.begin(), bin_of.end()) + 1;
  stats_rounds += 3;  // two reduce-by-key rounds + one packing round

  {
    TraceEvent event;
    event.depth = depth;
    event.kind = TraceEvent::kCaseOne;
    event.query = query.ToString();
    event.attribute = query.attr_name(x);
    for (EdgeId e : sx.ToVector()) {
      if (!event.choice_set.empty()) event.choice_set += ",";
      event.choice_set += query.edge(e).name;
    }
    event.heavy_values = static_cast<uint32_t>(heavy.size());
    event.light_groups = num_groups;
    event.input_tuples = instance.TotalSize();
    Record(std::move(event), trace);
  }

  // ---- Step 2 + 3: build and run the subqueries. ----
  // Every heavy value and every light group is an independent subquery:
  // they run as pool tasks filling per-index slots, and the slots are
  // harvested in index order below so children/results/traces keep the
  // serial order. Recursive Runs inside the tasks may themselves fan out
  // (nested ParallelFor) — the pool is re-entrant.
  ThreadPool& pool = ThreadPool::Global();
  std::vector<TraceEvent>* const parent_trace = trace;

  // Heavy assignments -> residual query Q_x.
  Hypergraph query_x = query.Residual(AttrSet::Single(x));
  std::vector<ChildSlot> heavy_slots(heavy.size());
  pool.ParallelFor(0, heavy.size(), 1, [&](size_t hi) {
    Value a = heavy[hi];
    ChildSlot& slot = heavy_slots[hi];
    std::optional<Instance> instance_a = ResidualInstance(query, instance, query_x, x, a);
    if (!instance_a) return;  // not viable
    slot.child = Run(query_x, std::move(*instance_a), /*charge_input=*/true, depth + 1,
                     parent_trace != nullptr ? &slot.trace : nullptr);
    slot.viable = true;
    if (collect_ && !slot.child.results.empty()) {
      CP_CHECK(slot.child.results.attrs().Union(AttrSet::Single(x)) == query.AllAttrs());
      slot.heavy_value = a;
      slot.rows = slot.child.results.size();
    }
  });

  // Light groups -> residual query Q_y = E - S^x plus a broadcast of the
  // group's S^x tuples.
  EdgeSet rest = query.AllEdges().Minus(sx);
  Hypergraph query_y = query.InducedByEdges(rest);
  std::vector<ChildSlot> light_slots(num_groups);
  pool.ParallelFor(0, num_groups, 1, [&](size_t gi) {
    uint32_t g = static_cast<uint32_t>(gi);
    ChildSlot& slot = light_slots[gi];
    std::vector<Value> group_values;
    for (size_t i = 0; i < light.size(); ++i) {
      if (bin_of[i] == g) group_values.push_back(light[i]);
    }
    std::sort(group_values.begin(), group_values.end());

    std::vector<Relation> broadcast;
    uint64_t broadcast_size = 0;
    for (EdgeId e : sx.ToVector()) {
      Relation part = SelectIn(instance[e], x, group_values);
      if (part.empty()) return;  // not viable
      broadcast_size += part.size();
      broadcast.push_back(std::move(part));
    }

    if (rest.empty()) {
      // Nothing left to recurse on: a single server joins the broadcast.
      slot.child.cluster = std::make_unique<Cluster>(1);
      mpc::ChargeBroadcast(slot.child.cluster.get(), broadcast_size, 0);
      slot.child.rounds = 1;
      slot.viable = true;
      if (collect_) slot.PendJoin(std::move(broadcast), nullptr, query.AllAttrs());
      return;
    }

    Instance instance_g(query_y);
    for (uint32_t e = 0; e < query_y.num_edges(); ++e) {
      EdgeId original = *query_y.SameNamedEdgeIn(query, e);
      const Relation& source = instance[original];
      if (source.attrs().Contains(x)) {
        instance_g[e] = SelectIn(source, x, group_values);
      } else {
        instance_g[e] = source;
      }
    }
    slot.child = Run(query_y, std::move(instance_g), /*charge_input=*/true, depth + 1,
                     parent_trace != nullptr ? &slot.trace : nullptr);
    // The group's S^x tuples are broadcast to every server of the group.
    mpc::ChargeBroadcast(slot.child.cluster.get(), broadcast_size, 0);
    slot.viable = true;
    if (collect_ && !slot.child.results.empty()) {
      slot.PendJoin(std::move(broadcast), &slot.child.results, query.AllAttrs());
    }
  });

  // Collect mode: size the results once, then write every slot straight
  // into its own slice, in slot order (heavy values first, then light
  // groups), before the children move out of the slots.
  Relation results;
  if (collect_) {
    std::vector<const ChildSlot*> writers;
    std::vector<size_t> offsets;
    size_t rows = 0;
    for (const std::vector<ChildSlot>* slots : {&heavy_slots, &light_slots}) {
      for (const ChildSlot& slot : *slots) {
        if (!slot.viable || slot.rows == 0) continue;
        writers.push_back(&slot);
        offsets.push_back(rows);
        rows += slot.rows;
      }
    }
    results = Relation(query.AllAttrs());
    Value* const base = results.AppendUninitialized(rows);
    const size_t width = results.width();
    pool.ParallelFor(0, writers.size(), 1, [&](size_t i) {
      CP_CHECK_EQ(writers[i]->WriteInto(x, base + offsets[i] * width), writers[i]->rows);
    });
  }

  // Harvest in index order (heavy values first, then light groups), which
  // is exactly the serial iteration order.
  std::vector<SubRun> children;
  auto harvest = [&](std::vector<ChildSlot>& slots) {
    for (ChildSlot& slot : slots) {
      if (!slot.viable) continue;
      if (parent_trace != nullptr) {
        for (TraceEvent& event : slot.trace) parent_trace->push_back(std::move(event));
      }
      children.push_back(std::move(slot.child));
    }
  };
  harvest(heavy_slots);
  harvest(light_slots);

  // ---- Assemble the parent cluster. ----
  uint64_t total_servers = 0;
  for (const SubRun& child : children) total_servers += child.cluster->p();
  total_servers = std::max<uint64_t>(total_servers, CeilDiv(instance.TotalSize(), load_));
  total_servers = std::max<uint64_t>(total_servers, 1);
  CP_CHECK_LE(total_servers, kMaxServers);

  SubRun run;
  run.cluster = std::make_unique<Cluster>(static_cast<uint32_t>(total_servers));
  // Formula charges for the reduce + statistics + packing rounds.
  for (uint32_t r = 0; r + 1 < stats_rounds; ++r) {
    mpc::ChargeLinear(run.cluster.get(), instance.TotalSize(), r + 1);
  }
  uint32_t server_offset = 0;
  uint32_t max_child_rounds = 0;
  for (SubRun& child : children) {
    run.cluster->tracker().Merge(child.cluster->tracker(), server_offset, stats_rounds);
    server_offset += child.cluster->p();
    max_child_rounds = std::max(max_child_rounds, child.rounds);
  }
  run.rounds = stats_rounds + max_child_rounds;
  run.results = std::move(results);
  return run;
}

SubRun Engine::CaseTwo(const Hypergraph& query, const Instance& instance,
                       const std::vector<EdgeSet>& components, uint32_t stats_rounds,
                       int depth, std::vector<TraceEvent>* trace) {
  // Run every component once (in parallel — components are independent);
  // replicate its loads across the grid. Traces splice in component order.
  std::vector<SubRun> children(components.size());
  std::vector<std::vector<TraceEvent>> child_traces(components.size());
  ThreadPool::Global().ParallelFor(0, components.size(), 1, [&](size_t c) {
    EdgeSet component = components[c];
    Hypergraph sub_query = query.InducedByEdges(component);
    Instance sub_instance(sub_query);
    std::vector<EdgeId> members = component.ToVector();
    for (size_t i = 0; i < members.size(); ++i) {
      sub_instance[static_cast<EdgeId>(i)] = instance[members[i]];
    }
    children[c] = Run(sub_query, std::move(sub_instance), /*charge_input=*/true, depth + 1,
                      trace != nullptr ? &child_traces[c] : nullptr);
  });
  if (trace != nullptr) {
    for (std::vector<TraceEvent>& child_trace : child_traces) {
      for (TraceEvent& event : child_trace) trace->push_back(std::move(event));
    }
  }

  uint64_t grid = 1;
  for (const SubRun& child : children) {
    grid *= child.cluster->p();
    CP_CHECK_LE(grid, kMaxServers) << "Cartesian grid too large";
  }

  SubRun run;
  run.cluster = std::make_unique<Cluster>(static_cast<uint32_t>(grid));
  uint64_t stride = 1;
  uint32_t max_child_rounds = 0;
  for (const SubRun& child : children) {
    uint32_t extent = child.cluster->p();
    uint64_t local_stride = stride;
    run.cluster->tracker().MergeMapped(
        child.cluster->tracker(), stats_rounds,
        [local_stride, extent](uint32_t s) {
          return static_cast<uint32_t>((s / local_stride) % extent);
        });
    stride *= extent;
    max_child_rounds = std::max(max_child_rounds, child.rounds);
  }
  run.rounds = stats_rounds + max_child_rounds;

  if (collect_) {
    std::vector<const Relation*> parts;
    for (const SubRun& child : children) parts.push_back(&child.results);
    run.results = MultiwayJoin(parts);
  }
  return run;
}

}  // namespace

AcyclicRunResult ComputeAcyclicJoin(const Hypergraph& query, const Instance& instance,
                                    const AcyclicRunOptions& options) {
  instance.CheckAgainst(query);
  auto tree = JoinTree::Build(query);
  CP_CHECK(tree.has_value()) << "ComputeAcyclicJoin requires an alpha-acyclic query";

  uint64_t load = options.load_threshold;
  if (load == 0) {
    load = options.policy == RunPolicy::kConservative
               ? PlanLoadConservative(query, *tree, instance, options.p)
               : PlanLoadOptimal(query, instance, options.p);
  }

  AcyclicRunResult result;
  Engine engine(options.policy, options.collect, load);
  SubRun run = engine.Run(query, instance, /*charge_input=*/false, 0,
                          options.trace ? &result.trace : nullptr);

  result.rounds = run.rounds;
  result.servers_used = run.cluster->p();
  result.load_threshold = load;
  result.SetLoadTracker(std::move(run.cluster->tracker()));
  if (options.collect) {
    result.results = std::move(run.results);
    result.output_count = result.results.size();
  }
  return result;
}

std::string TraceToString(const std::vector<TraceEvent>& trace) {
  std::string out;
  for (const TraceEvent& event : trace) {
    out.append(static_cast<size_t>(event.depth) * 2, ' ');
    switch (event.kind) {
      case TraceEvent::kBaseCase:
        out += "emit " + event.query;
        break;
      case TraceEvent::kCaseOne:
        out += "case-I on x=" + event.attribute + " S^x={" + event.choice_set + "} (" +
               std::to_string(event.heavy_values) + " heavy, " +
               std::to_string(event.light_groups) + " light groups): " + event.query;
        break;
      case TraceEvent::kCaseTwo:
        out += "case-II cartesian over " + std::to_string(event.components) +
               " components: " + event.query;
        break;
    }
    out += " [" + std::to_string(event.input_tuples) + " tuples]\n";
  }
  return out;
}

}  // namespace coverpack
