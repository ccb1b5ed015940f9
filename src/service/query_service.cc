#include "service/query_service.h"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>
#include <utility>

#include "planner/execute.h"
#include "planner/stats.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace coverpack {
namespace service {

uint64_t FingerprintTrackerHash(const LoadTracker& tracker) {
  uint64_t h = HashCombine(tracker.num_servers(), tracker.num_rounds());
  for (uint32_t r = 0; r < tracker.num_rounds(); ++r) {
    for (uint32_t s = 0; s < tracker.num_servers(); ++s) {
      h = HashCombine(h, tracker.At(r, s));
    }
  }
  return h;
}

LoadFingerprint FingerprintOf(const RunResult& run) {
  LoadFingerprint fingerprint;
  fingerprint.executed = true;
  fingerprint.max_load = run.max_load;
  fingerprint.rounds = run.rounds;
  fingerprint.total_communication = run.total_communication;
  fingerprint.servers_used = run.servers_used;
  fingerprint.load_threshold = run.load_threshold;
  fingerprint.output_count = run.output_count;
  fingerprint.tracker_hash = FingerprintTrackerHash(run.load_tracker);
  return fingerprint;
}

namespace {

/// Nearest-rank percentile of an ascending-sorted vector (0 when empty).
uint64_t Percentile(const std::vector<uint64_t>& sorted, uint32_t pct) {
  if (sorted.empty()) return 0;
  const size_t index = (static_cast<size_t>(pct) * (sorted.size() - 1)) / 100;
  return sorted[index];
}

}  // namespace

CachedPlan ComputePlan(const Hypergraph& query, const Instance& instance, uint32_t p,
                       const ShapeCanon& canon) {
  return ComputePlan(query, p, canon, planner::BuildStatsSnapshot(query, instance));
}

CachedPlan ComputePlan(const Hypergraph& query, uint32_t p, const ShapeCanon& canon,
                       const planner::StatsSnapshot& stats) {
  const planner::PlanDecision decision = planner::PlanChooser::Choose(query, p, stats);
  CachedPlan plan;
  plan.canonical_form = canon.canonical_form;
  plan.strategy = decision.algorithm;
  // Theorem 4's L from the stats' relation sizes: exactly what the
  // multi-round run would plan for itself at p, so a cache-hit execution
  // is byte-identical to a standalone auto-planned run.
  plan.load_threshold = decision.table.thm5_threshold;
  plan.planner_est_load = decision.est_load;
  // Cold planning cost: one charge per attribute subset of the psi* sweep
  // (priced as the paper's per-subset LP; see kLpSubsetTicks) plus
  // per-edge tree/decomposition work. A deterministic function of the
  // shape only.
  const uint32_t attrs = std::min<uint32_t>(canon.num_attrs, 20);
  plan.plan_cost_ticks = kPlanBaseTicks + (uint64_t{1} << attrs) * kLpSubsetTicks +
                         uint64_t{canon.num_edges} * kTreeTicks;
  return plan;
}

ExecutionResult ExecuteRegistered(const Hypergraph& query, const Instance& instance,
                                  const CachedPlan& plan, uint32_t p, bool collect) {
  const RunResult run =
      planner::Execute(plan.strategy, query, instance, p, collect, plan.load_threshold);
  return {FingerprintOf(run), planner::ExecutionTicks(run.load_tracker)};
}

std::string ServiceRunStats::Digest() const {
  std::ostringstream out;
  out << "arrivals=" << arrivals << ";completed=" << completed
      << ";end=" << sim_end_ticks << ";qpk=" << throughput_qpk
      << ";p50=" << latency_p50_ticks << ";p99=" << latency_p99_ticks
      << ";max=" << latency_max_ticks << ";mean=" << latency_mean_ticks
      << ";wait99=" << queue_wait_p99_ticks << ";depth=" << max_queue_depth
      << ";peak=" << peak_servers_leased << ";bypass=" << plan_bypasses
      << ";mismatch=" << load_mismatches << ";cache=" << cache.hits << "/"
      << cache.misses << "/" << cache.insertions << "/" << cache.evictions << "/"
      << cache.collisions << "/" << cache.size << ";planner=" << planner.decisions_one_round
      << "/" << planner.decisions_acyclic << "/" << planner.decisions_output_balanced << "/"
      << planner.cache_hits << "/" << planner.cache_misses << "\n";
  for (const QueryOutcome& o : outcomes) {
    out << "q" << o.query_id << ":c" << o.client << ":e" << o.catalog_index << ":a"
        << o.arrival_ticks << ":s" << o.start_ticks << ":f" << o.completion_ticks << ":h"
        << (o.cache_hit ? 1 : 0) << ":p" << o.plan_ticks << ":x" << o.exec_ticks << ":l"
        << o.max_load << ":r" << o.rounds << ":y"
        << static_cast<uint32_t>(o.strategy) << ":v" << o.planner_est_load << "\n";
  }
  for (size_t i = 0; i < entry_fingerprints.size(); ++i) {
    const LoadFingerprint& f = entry_fingerprints[i];
    out << "fp" << i << ":" << (f.executed ? 1 : 0) << ":" << f.max_load << ":" << f.rounds
        << ":" << f.total_communication << ":" << f.servers_used << ":" << f.load_threshold
        << ":" << f.output_count << ":" << f.tracker_hash << "\n";
  }
  return out.str();
}

QueryService::QueryService(ServiceConfig config)
    : config_(std::move(config)), cache_(kPlanCacheCapacity) {
  CP_CHECK(config_.servers_per_query > 0);
  CP_CHECK_LE(config_.servers_per_query, config_.total_servers);
}

RegisteredQuery::RegisteredQuery(std::string name_in, Hypergraph query_in,
                                 Instance instance_in)
    : name(std::move(name_in)),
      query(std::move(query_in)),
      instance(std::move(instance_in)) {
  instance.CheckAgainst(query);
  canon = CanonicalizeShape(query);
  stats = planner::BuildStatsSnapshot(query, instance);
  stats_signature = planner::SnapshotSignature(canon.edge_colors, stats);
  cacheable = SizesUniformPerColorClass(canon, instance);
}

uint32_t QueryService::RegisterQuery(std::string name, Hypergraph query, Instance instance) {
  catalog_.emplace_back(std::move(name), std::move(query), std::move(instance));
  return static_cast<uint32_t>(catalog_.size() - 1);
}

/// A query holding a lease with its plan resolved, awaiting execution.
struct QueryService::Dispatched {
  uint64_t query_id = 0;
  uint32_t client = 0;
  uint32_t catalog_index = 0;
  uint64_t arrival_ticks = 0;
  SubClusterLease lease;
  CachedPlan plan;
  bool cache_hit = false;
  uint64_t plan_ticks = 0;
};

ServiceRunStats QueryService::Run() {
  CP_CHECK(!catalog_.empty()) << "run needs at least one registered query";
  ServiceRunStats stats;
  const PlanCacheStats cache_before = cache_.stats();

  // Seed the arrival stream. Open-loop and bursty clients issue on their
  // own clock, so their whole schedule is known up front; closed-loop
  // clients issue their next query only after the previous one completes.
  std::vector<ClientSim> clients;
  clients.reserve(config_.workload.clients);
  for (uint32_t c = 0; c < config_.workload.clients; ++c) {
    clients.emplace_back(config_.workload, c, catalog_.size());
  }
  SimEventQueue events;
  uint64_t next_query_id = 0;
  const bool closed_loop = config_.workload.mode == ArrivalMode::kClosedLoop;
  for (uint32_t c = 0; c < clients.size(); ++c) {
    uint64_t t = 0;
    while (!clients[c].Done()) {
      const ClientSim::Draw draw = clients[c].NextArrival();
      t += draw.delay_ticks;
      events.Push({t, 0, SimEventKind::kArrival, c, draw.catalog_index, next_query_id++});
      if (closed_loop) break;  // later arrivals are completion-triggered
    }
  }

  struct Pending {
    uint64_t query_id = 0;
    uint32_t client = 0;
    uint32_t catalog_index = 0;
    uint64_t arrival_ticks = 0;
  };
  struct Running {
    QueryOutcome outcome;
    SubClusterLease lease;
  };
  std::deque<Pending> wait_queue;
  std::map<uint64_t, Running> running;  // query_id -> in-flight record
  LeaseManager leases(config_.total_servers);
  stats.entry_fingerprints.assign(catalog_.size(), LoadFingerprint{});
  std::vector<uint64_t> queue_waits;

  uint64_t now = 0;
  while (!events.empty()) {
    now = events.Top().time;
    // Drain every event scheduled for this tick before dispatching, so all
    // queries admissible at `now` form one batch for the thread pool.
    while (!events.empty() && events.Top().time == now) {
      const SimEvent event = events.PopMin();
      if (event.kind == SimEventKind::kArrival) {
        ++stats.arrivals;
        wait_queue.push_back({event.query_id, event.client, event.catalog_index, now});
        stats.max_queue_depth = std::max<uint64_t>(stats.max_queue_depth, wait_queue.size());
      } else {
        auto it = running.find(event.query_id);
        CP_CHECK(it != running.end());
        leases.Release(it->second.lease);
        QueryOutcome outcome = it->second.outcome;
        running.erase(it);
        ++stats.completed;
        stats.sim_end_ticks = std::max(stats.sim_end_ticks, outcome.completion_ticks);
        stats.latencies_sorted.push_back(outcome.completion_ticks - outcome.arrival_ticks);
        queue_waits.push_back(outcome.start_ticks - outcome.arrival_ticks);
        const uint32_t client = outcome.client;
        stats.outcomes.push_back(std::move(outcome));
        if (closed_loop && !clients[client].Done()) {
          const ClientSim::Draw draw = clients[client].NextArrival();
          events.Push({now + draw.delay_ticks, 0, SimEventKind::kArrival, client,
                       draw.catalog_index, next_query_id++});
        }
      }
    }

    // Work-queue scheduling: grant leases FIFO until the pool runs dry.
    // Planning stays serial (deterministic cache state); the batch's
    // pipelines then execute concurrently on the thread pool.
    std::vector<Dispatched> batch;
    while (!wait_queue.empty()) {
      auto lease = leases.Acquire(config_.servers_per_query);
      if (!lease.has_value()) break;
      const Pending pending = wait_queue.front();
      wait_queue.pop_front();
      Dispatched dispatched;
      dispatched.query_id = pending.query_id;
      dispatched.client = pending.client;
      dispatched.catalog_index = pending.catalog_index;
      dispatched.arrival_ticks = pending.arrival_ticks;
      dispatched.lease = *lease;

      const RegisteredQuery& entry = catalog_[pending.catalog_index];
      if (!config_.cache_enabled || !entry.cacheable) {
        if (!entry.cacheable) ++stats.plan_bypasses;
        dispatched.plan =
            ComputePlan(entry.query, config_.servers_per_query, entry.canon, entry.stats);
        dispatched.plan_ticks = dispatched.plan.plan_cost_ticks;
        ++stats.planner.cache_misses;
      } else {
        const PlanCacheKey key{entry.canon.hash, config_.servers_per_query,
                               entry.stats_signature};
        auto cached = cache_.Lookup(key, entry.canon.canonical_form);
        if (cached.has_value()) {
          dispatched.plan = std::move(*cached);
          dispatched.cache_hit = true;
          dispatched.plan_ticks = kPlanHitTicks;
          ++stats.planner.cache_hits;
        } else {
          dispatched.plan =
              ComputePlan(entry.query, config_.servers_per_query, entry.canon, entry.stats);
          dispatched.plan_ticks = dispatched.plan.plan_cost_ticks;
          cache_.Insert(key, dispatched.plan);
          ++stats.planner.cache_misses;
        }
      }
      batch.push_back(std::move(dispatched));
    }
    stats.peak_servers_leased = std::max(stats.peak_servers_leased, leases.peak_leased());

    if (batch.empty()) continue;
    // Execute the batch's pipelines concurrently; results land in
    // per-slot storage, so the merge below is deterministic regardless of
    // which worker ran which pipeline.
    std::vector<ExecutionResult> results(batch.size());
    const auto run_one = [&](size_t i) {
      const RegisteredQuery& entry = catalog_[batch[i].catalog_index];
      results[i] = ExecuteRegistered(entry.query, entry.instance, batch[i].plan,
                                     config_.servers_per_query, /*collect=*/false);
    };
    if (batch.size() == 1) {
      run_one(0);
    } else {
      ThreadPool::Global().ParallelFor(0, batch.size(), /*grain=*/1, run_one);
    }

    for (size_t i = 0; i < batch.size(); ++i) {
      const Dispatched& dispatched = batch[i];
      LoadFingerprint& first = stats.entry_fingerprints[dispatched.catalog_index];
      if (!first.executed) {
        first = results[i].fingerprint;
      } else if (!(first == results[i].fingerprint)) {
        ++stats.load_mismatches;  // same entry, same p: loads must repeat
      }
      Running run;
      run.lease = dispatched.lease;
      run.outcome.query_id = dispatched.query_id;
      run.outcome.client = dispatched.client;
      run.outcome.catalog_index = dispatched.catalog_index;
      run.outcome.arrival_ticks = dispatched.arrival_ticks;
      run.outcome.start_ticks = now;
      run.outcome.completion_ticks = now + dispatched.plan_ticks + results[i].exec_ticks;
      run.outcome.cache_hit = dispatched.cache_hit;
      run.outcome.plan_ticks = dispatched.plan_ticks;
      run.outcome.exec_ticks = results[i].exec_ticks;
      run.outcome.max_load = results[i].fingerprint.max_load;
      run.outcome.rounds = results[i].fingerprint.rounds;
      run.outcome.strategy = dispatched.plan.strategy;
      run.outcome.planner_est_load = dispatched.plan.planner_est_load;
      stats.planner.CountDecision(dispatched.plan.strategy);
      if (results[i].fingerprint.max_load > 0) {
        stats.planner.est_error_ratios.push_back(
            static_cast<double>(dispatched.plan.planner_est_load) /
            static_cast<double>(results[i].fingerprint.max_load));
      }
      events.Push({run.outcome.completion_ticks, 0, SimEventKind::kCompletion,
                   dispatched.client, dispatched.catalog_index, dispatched.query_id});
      running.emplace(dispatched.query_id, std::move(run));
    }
  }
  CP_CHECK(wait_queue.empty());
  CP_CHECK(running.empty());
  CP_CHECK_EQ(stats.arrivals, stats.completed);

  std::sort(stats.latencies_sorted.begin(), stats.latencies_sorted.end());
  std::sort(queue_waits.begin(), queue_waits.end());
  stats.latency_p50_ticks = Percentile(stats.latencies_sorted, 50);
  stats.latency_p99_ticks = Percentile(stats.latencies_sorted, 99);
  stats.latency_max_ticks =
      stats.latencies_sorted.empty() ? 0 : stats.latencies_sorted.back();
  if (!stats.latencies_sorted.empty()) {
    uint64_t total = 0;
    for (uint64_t latency : stats.latencies_sorted) total += latency;
    stats.latency_mean_ticks =
        static_cast<double>(total) / static_cast<double>(stats.latencies_sorted.size());
  }
  stats.queue_wait_p99_ticks = Percentile(queue_waits, 99);
  if (stats.sim_end_ticks > 0) {
    stats.throughput_qpk = static_cast<double>(stats.completed) * 1000.0 /
                           static_cast<double>(stats.sim_end_ticks);
  }
  stats.cache = cache_.stats().Since(cache_before);
  return stats;
}

}  // namespace service
}  // namespace coverpack
