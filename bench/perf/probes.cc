#include "probes.h"

#include <utility>

#include "lp/covers.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "mpc/exchange.h"
#include "mpc/hypercube.h"
#include "mpc/primitives.h"
#include "planner/cost_model.h"
#include "planner/plan_chooser.h"
#include "planner/stats.h"
#include "relation/operators.h"
#include "resilience/fault_injector.h"
#include "service/query_service.h"
#include "service/query_shape.h"
#include "util/arena.h"

namespace coverpack {
namespace perf {

const std::vector<MetricSpec>& LayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"core.run_ms", "ms"},
      {"core.rounds", "count"},
      {"core.max_load", "tuples"},
      {"core.total_communication", "tuples"},
      {"mpc.hash_partition_ms", "ms"},
      {"mpc.semijoin_ms", "ms"},
      {"mpc.hypercube_route_ms", "ms"},
      {"mpc.exchanges", "count"},
      {"mpc.tuples_moved", "tuples"},
      {"mpc.tuples_moved_per_output_row", "ratio"},
      {"relation.oracle_ms", "ms"},
      {"relation.semijoin_ms", "ms"},
      {"relation.hash_join_ms", "ms"},
      {"relation.operator_calls", "count"},
      {"relation.arena_bytes", "bytes"},
      {"relation.arena_high_water_bytes", "bytes"},
      {"relation.output_rows", "rows"},
      {"resilience.overhead_ms", "ms"},
      {"resilience.retries", "count"},
      {"resilience.full_reruns", "count"},
      {"resilience.tuples_resent", "tuples"},
      {"resilience.resent_per_moved", "ratio"},
      {"lp.lp_numbers_ms", "ms"},
      {"lp.psi_star_ms", "ms"},
      {"planner.stats_ms", "ms"},
      {"planner.choose_ms", "ms"},
      {"planner.plan_ms", "ms"},
      {"planner.share_one_round", "ratio"},
      {"planner.share_acyclic", "ratio"},
      {"planner.share_output_balanced", "ratio"},
      {"service.canonicalize_ms", "ms"},
      {"service.register_ms", "ms"},
      {"service.execute_ms", "ms"},
      {"service.ms_per_plan_tick", "ms/tick"},
      {"service.ms_per_exec_tick", "ms/tick"},
      {"workload.generate_ms", "ms"},
      {"trace.op_ms_p50", "ms"},
  };
  return kMetrics;
}

namespace {

/// Pairs of distinct relations sharing an attribute, in edge order.
std::vector<std::pair<EdgeId, EdgeId>> AdjacentPairs(const Hypergraph& query) {
  std::vector<std::pair<EdgeId, EdgeId>> pairs;
  for (EdgeId e = 0; e < query.num_edges(); ++e) {
    for (EdgeId f = e + 1; f < query.num_edges(); ++f) {
      if (query.edge(e).attrs.Intersects(query.edge(f).attrs)) pairs.emplace_back(e, f);
    }
  }
  return pairs;
}

/// Accumulates probe results over the inputs of one round.
class ProbeRound {
 public:
  ProbeRound(uint64_t round, Tracer* tracer) : round_(round), tracer_(tracer) {}

  /// Runs `fn` inside a span and adds its wall time to `<name>_ms`.
  template <typename Fn>
  double Time(const std::string& name, const Fn& fn) {
    const Tracer::Scope span = tracer_->Open("probe." + name, round_);
    const Clock::time_point start = Clock::now();
    fn();
    const double ms = MsBetween(start, Clock::now());
    sums_[name + "_ms"] += ms;
    return ms;
  }

  void Add(const std::string& name, double value) { sums_[name] += value; }
  double Sum(const std::string& name) const {
    const auto it = sums_.find(name);
    return it == sums_.end() ? 0.0 : it->second;
  }

 private:
  uint64_t round_;
  Tracer* tracer_;
  std::map<std::string, double> sums_;
};

void ProbeInput(const QueryInput& input, ProbeRound* probes) {
  const Hypergraph& query = input.query;
  const Instance& instance = input.instance;

  // core, with the mpc exchange and relation arena ledgers read around it.
  mpc::ExchangeTelemetry::Reset();
  MemoryTelemetry::Reset();
  JoinRun clean;
  const double clean_ms = probes->Time("core.run", [&] { clean = RunJoin(input); });
  const mpc::ExchangeTelemetrySnapshot exchanges = mpc::ExchangeTelemetry::Snapshot();
  const MemoryTelemetrySnapshot memory = MemoryTelemetry::Snapshot();
  probes->Add("core.rounds", static_cast<double>(clean.rounds));
  probes->Add("core.max_load", static_cast<double>(clean.max_load));
  probes->Add("core.total_communication", static_cast<double>(clean.total_communication));
  probes->Add("relation.output_rows", static_cast<double>(clean.results.size()));
  clean = JoinRun();
  probes->Add("mpc.exchanges", static_cast<double>(exchanges.count));
  probes->Add("mpc.tuples_moved", static_cast<double>(exchanges.tuples_moved));
  probes->Add("relation.operator_calls", static_cast<double>(memory.scopes));
  probes->Add("relation.arena_bytes", static_cast<double>(memory.bytes_total));
  probes->Add("relation.arena_high_water_bytes", static_cast<double>(memory.high_water_bytes));

  // resilience: the same run under the crash storm.
  resilience::ResilienceTelemetry::Reset();
  double faulted_ms = 0.0;
  {
    const resilience::ScopedFaultInjection faults(CrashStorm());
    JoinRun faulted;  // freed after the span, like the clean run's result
    faulted_ms = probes->Time("resilience.faulted_run", [&] { faulted = RunJoin(input); });
  }
  const resilience::ResilienceTelemetrySnapshot recovery =
      resilience::ResilienceTelemetry::Snapshot();
  probes->Add("resilience.overhead_ms", faulted_ms - clean_ms);
  probes->Add("resilience.retries", static_cast<double>(recovery.retries));
  probes->Add("resilience.full_reruns", static_cast<double>(recovery.full_reruns));
  probes->Add("resilience.tuples_resent", static_cast<double>(recovery.tuples_resent));

  // mpc primitives on the input relations, placed without charge first.
  const std::vector<std::pair<EdgeId, EdgeId>> pairs = AdjacentPairs(query);
  Cluster cluster(kServers);
  std::vector<DistRelation> placed;
  for (EdgeId e = 0; e < query.num_edges(); ++e) {
    placed.push_back(DistRelation::InitialPlacement(cluster, instance[e]));
  }
  probes->Time("mpc.hash_partition", [&] {
    for (EdgeId e = 0; e < query.num_edges(); ++e) {
      const AttrSet others = query.AttrsOf(query.AllEdges().Minus(EdgeSet::Single(e)));
      AttrSet key = query.edge(e).attrs.Intersect(others);
      if (key.empty()) key = query.edge(e).attrs;
      mpc::HashPartition(&cluster, placed[e], key, 0);
    }
  });
  probes->Time("mpc.semijoin", [&] {
    uint32_t round = 1;
    for (const auto& [e, f] : pairs) mpc::SemiJoinMpc(&cluster, placed[e], placed[f], &round);
  });
  std::vector<uint64_t> sizes;
  for (EdgeId e = 0; e < query.num_edges(); ++e) sizes.push_back(instance[e].size());
  const mpc::ShareVector shares = mpc::OptimizeSharesForSizes(query, sizes, kServers);
  probes->Time("mpc.hypercube_route", [&] {
    Cluster grid(kServers);
    mpc::HypercubeJoin(&grid, query, instance, shares, 0, /*collect=*/false);
  });

  // relation operators over adjacent relation pairs.
  probes->Time("relation.semijoin", [&] {
    for (const auto& [e, f] : pairs) SemiJoin(instance[e], instance[f]);
  });
  probes->Time("relation.hash_join", [&] {
    for (const auto& [e, f] : pairs) HashJoin(instance[e], instance[f]);
  });

  // lp and planner.
  planner::LpNumbers lp;
  probes->Time("lp.lp_numbers", [&] { lp = planner::ComputeLpNumbers(query); });
  probes->Time("lp.psi_star", [&] { EdgeQuasiPackingNumber(query); });
  planner::StatsSnapshot stats;
  probes->Time("planner.stats", [&] { stats = planner::BuildStatsSnapshot(query, instance); });
  planner::PlanDecision decision;
  probes->Time("planner.choose",
               [&] { decision = planner::PlanChooser::Choose(query, kServers, stats, lp); });
  probes->Add("planner.share_one_round", decision.algorithm == planner::Algorithm::kOneRound);
  probes->Add("planner.share_acyclic",
              decision.algorithm == planner::Algorithm::kAcyclicMultiRound);
  probes->Add("planner.share_output_balanced",
              decision.algorithm == planner::Algorithm::kOutputBalanced);

  // service: the cold planning and execution path one served query takes.
  service::ShapeCanon canon;
  probes->Time("service.canonicalize", [&] { canon = service::CanonicalizeShape(query); });
  service::CachedPlan plan;
  probes->Time("planner.plan",
               [&] { plan = service::ComputePlan(query, instance, kServers, canon); });
  probes->Add("service.plan_ticks", static_cast<double>(plan.plan_cost_ticks));
  service::QueryService scratch{service::ServiceConfig()};
  Hypergraph query_copy = query;
  Instance instance_copy = instance;
  probes->Time("service.register", [&] {
    scratch.RegisterQuery(input.name, std::move(query_copy), std::move(instance_copy));
  });
  service::ExecutionResult executed;
  probes->Time("service.execute", [&] {
    executed = service::ExecuteRegistered(query, instance, plan, kServers, /*collect=*/false);
  });
  probes->Add("service.exec_ticks", static_cast<double>(executed.exec_ticks));
}

double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

}  // namespace

std::map<std::string, double> RunLayerProbes(const std::vector<QueryInput>& inputs,
                                             uint64_t round, Tracer* tracer) {
  ProbeRound probes(round, tracer);
  for (const QueryInput& input : inputs) ProbeInput(input, &probes);
  std::map<std::string, double> values;
  const double count = static_cast<double>(inputs.size());
  for (const MetricSpec& metric : LayerMetrics()) values[metric.name] = probes.Sum(metric.name) / count;
  values["mpc.tuples_moved_per_output_row"] =
      Ratio(probes.Sum("mpc.tuples_moved"), probes.Sum("relation.output_rows"));
  values["resilience.resent_per_moved"] =
      Ratio(probes.Sum("resilience.tuples_resent"), probes.Sum("mpc.tuples_moved"));
  values["service.ms_per_plan_tick"] =
      Ratio(probes.Sum("planner.plan_ms"), probes.Sum("service.plan_ticks"));
  values["service.ms_per_exec_tick"] =
      Ratio(probes.Sum("service.execute_ms"), probes.Sum("service.exec_ticks"));
  // Set-up and operation metrics are filled in by the harness.
  values.erase("workload.generate_ms");
  values.erase("relation.oracle_ms");
  values.erase("trace.op_ms_p50");
  return values;
}

}  // namespace perf
}  // namespace coverpack
