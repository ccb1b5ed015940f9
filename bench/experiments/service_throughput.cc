/// \file service_throughput.cc
/// \brief Measures the concurrent query service: queries/sec and tail
/// latency vs client count, with the structure-keyed plan cache off, cold,
/// and warm.
///
/// For each (client count, arrival mode) scenario the service runs three
/// times over the same Zipf-skewed catalog stream: once with the cache
/// disabled, then twice on one cached service — the first run is the cold
/// cache, the second the warm cache. Four claims are checked:
///
///  1. **Caching pays.** warm throughput > cold throughput >= no-cache
///     throughput, and warm p99 <= cold p99, on every scenario. All
///     tick-denominated (simulated clock), so the comparison is exact and
///     thread-count-independent.
///  2. **Warm means warm.** The warm run's per-run cache delta is 100%
///     hits: hits == arrivals, misses == insertions == 0.
///  3. **Structure sharing.** Path(3) and Line3 are isomorphic under
///     attribute renaming, so they share one cache entry: the cold run
///     plans at most one of them, and distinct cold misses stay below the
///     catalog size.
///  4. **Cached plans are exact.** Every per-entry load fingerprint the
///     service recorded (max load, rounds, total communication, servers,
///     threshold, output count, full load-matrix hash) equals a standalone
///     auto-planned ComputeAcyclicJoin / ComputeOneRoundSkewAware run of
///     the same entry at the same sub-cluster size, and the warm run's
///     fingerprints equal the cold run's. Hits save ticks, never answers.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/acyclic_join.h"
#include "core/one_round.h"
#include "core/output_balanced.h"
#include "experiments/runners.h"
#include "planner/plan_chooser.h"
#include "query/catalog.h"
#include "query/join_tree.h"
#include "service/query_service.h"
#include "telemetry/service_metrics.h"
#include "util/hash.h"
#include "workload/generators.h"

namespace coverpack {
namespace bench {

namespace {

ServiceBenchOverrides g_service_overrides;

/// Relation cardinality of every catalog entry (matching instances, so all
/// relations share one size and every entry is cacheable).
constexpr uint64_t kEntryN = 1024;

/// Registers the experiment's query catalog: a structural mix of acyclic
/// (multi-round) and cyclic (one-round) shapes, including the isomorphic
/// pair Path(3)/Line3 that must share one cache entry.
void RegisterCatalog(service::QueryService* svc) {
  const auto add = [&](const char* name, Hypergraph query) {
    Instance instance = workload::MatchingInstance(query, kEntryN);
    svc->RegisterQuery(name, std::move(query), std::move(instance));
  };
  add("path3", catalog::Path(3));
  add("line3", catalog::Line3());  // Path(3) with renamed attributes
  add("star3", catalog::Star(3));
  add("stardual3", catalog::StarDual(3));
  add("semijoin", catalog::SemiJoinExample());
  add("alpha_not_berge", catalog::AlphaNotBerge());
  add("triangle", catalog::Triangle());
  add("cycle4", catalog::Cycle(4));
  add("box", catalog::BoxJoin());
}

/// The fingerprint a standalone, auto-planned pipeline run produces for
/// one catalog entry — the algorithm comes from a fresh PlanChooser
/// decision over freshly built statistics (the same decision the service's
/// cold path must reach), but the execution goes through the raw core API
/// (load_threshold auto-planned from scratch), not through the service's
/// ExecuteRegistered, so claim 4 really compares two independent paths.
service::LoadFingerprint StandaloneFingerprint(const service::RegisteredQuery& entry,
                                               uint32_t p) {
  const planner::StatsSnapshot stats =
      planner::BuildStatsSnapshot(entry.query, entry.instance);
  const planner::PlanDecision decision = planner::PlanChooser::Choose(entry.query, p, stats);
  if (decision.algorithm == planner::Algorithm::kAcyclicMultiRound) {
    AcyclicRunOptions options;
    options.policy = RunPolicy::kOptimal;
    options.collect = false;
    options.p = p;
    return service::FingerprintOf(ComputeAcyclicJoin(entry.query, entry.instance, options));
  }
  if (decision.algorithm == planner::Algorithm::kOutputBalanced) {
    OutputBalancedOptions options;
    options.collect = false;
    return service::FingerprintOf(
        ComputeOutputBalanced(entry.query, entry.instance, p, options));
  }
  OneRoundOptions options;
  options.collect = false;
  return service::FingerprintOf(
      ComputeOneRoundSkewAware(entry.query, entry.instance, p, options));
}

/// One (client count, arrival mode) point of the sweep.
struct Scenario {
  std::string name;  ///< metric-key scope, e.g. "open_c8"
  uint32_t clients = 0;
  service::ArrivalMode mode = service::ArrivalMode::kOpenLoop;
};

service::ServiceConfig MakeConfig(const Scenario& scenario, bool cache_enabled,
                                  uint64_t seed) {
  service::ServiceConfig config;
  config.total_servers = 256;
  config.servers_per_query = 64;
  config.cache_enabled = cache_enabled;
  config.workload.clients = scenario.clients;
  config.workload.queries_per_client = 6;
  config.workload.mode = scenario.mode;
  config.workload.mean_interarrival_ticks = 32;
  if (g_service_overrides.zipf_skew > 0.0) {
    config.workload.zipf_skew = g_service_overrides.zipf_skew;
  }
  config.workload.seed = seed;
  return config;
}

}  // namespace

void SetServiceBenchOverrides(const ServiceBenchOverrides& overrides) {
  g_service_overrides = overrides;
}

telemetry::RunReport RunServiceThroughput(const Experiment& e) {
  telemetry::RunReport report = MakeReport(e);
  Banner(e.title, e.claim);

  // The sweep; --clients / --arrival narrow it to one custom scenario.
  std::vector<Scenario> scenarios;
  const bool custom_arrival = !g_service_overrides.arrival.empty();
  std::vector<uint32_t> client_counts{2, 8, 16};
  if (g_service_overrides.clients > 0) {
    client_counts = {g_service_overrides.clients};
  }
  // The driver validates --arrival, so value_or only covers direct callers.
  const service::ArrivalMode main_mode =
      custom_arrival ? service::ParseArrivalMode(g_service_overrides.arrival)
                           .value_or(service::ArrivalMode::kOpenLoop)
                     : service::ArrivalMode::kOpenLoop;
  for (uint32_t clients : client_counts) {
    scenarios.push_back({std::string(service::ArrivalModeName(main_mode)) + "_c" +
                             std::to_string(clients),
                         clients, main_mode});
  }
  if (!custom_arrival) {
    // One bursty and one closed-loop point, to exercise all arrival modes.
    const uint32_t extra_clients =
        g_service_overrides.clients > 0 ? g_service_overrides.clients : 8;
    scenarios.push_back(
        {"bursty_c" + std::to_string(extra_clients), extra_clients,
         service::ArrivalMode::kBursty});
    scenarios.push_back(
        {"closed_c" + std::to_string(extra_clients), extra_clients,
         service::ArrivalMode::kClosedLoop});
  }
  const bool cache_disabled = g_service_overrides.no_cache;

  report.AddParam("entry_n", kEntryN);
  report.AddParam("total_servers", uint64_t{256});
  report.AddParam("servers_per_query", uint64_t{64});
  report.AddParam("scenarios", static_cast<uint64_t>(scenarios.size()));
  report.AddParam("cache_disabled", cache_disabled ? uint64_t{1} : uint64_t{0});

  // Standalone fingerprints, computed once per entry (claim 4's baseline),
  // plus the Path(3)/Line3 shared-structure check (claim 3).
  std::vector<service::LoadFingerprint> standalone;
  uint64_t distinct_shape_keys = 0;
  bool isomorphic_pair_ok = false;
  {
    service::ServiceConfig probe_config;
    service::QueryService probe(probe_config);
    RegisterCatalog(&probe);
    std::vector<uint64_t> keys;
    for (uint32_t i = 0; i < probe.catalog_size(); ++i) {
      const service::RegisteredQuery& entry = probe.entry(i);
      standalone.push_back(StandaloneFingerprint(entry, 64));
      keys.push_back(HashCombine(entry.canon.hash, entry.stats_signature));
    }
    isomorphic_pair_ok = probe.entry(0).canon.hash == probe.entry(1).canon.hash &&
                         probe.entry(0).stats_signature == probe.entry(1).stats_signature &&
                         probe.entry(0).canon.canonical_form ==
                             probe.entry(1).canon.canonical_form;
    std::sort(keys.begin(), keys.end());
    distinct_shape_keys =
        static_cast<uint64_t>(std::unique(keys.begin(), keys.end()) - keys.begin());
    std::cout << "catalog: " << probe.catalog_size() << " entries, "
              << distinct_shape_keys << " distinct cache keys (path3 == line3: "
              << (isomorphic_pair_ok ? "yes" : "NO") << ")\n";
  }

  bool caching_pays_ok = true;
  bool warm_all_hits_ok = true;
  bool sharing_ok = isomorphic_pair_ok;
  bool exact_ok = true;
  bool clean_ok = true;  // no bypasses, no load mismatches anywhere

  const auto check_run = [&](const service::ServiceRunStats& stats) {
    if (stats.plan_bypasses != 0 || stats.load_mismatches != 0) clean_ok = false;
    for (size_t i = 0; i < stats.entry_fingerprints.size(); ++i) {
      const service::LoadFingerprint& fp = stats.entry_fingerprints[i];
      if (fp.executed && !(fp == standalone[i])) exact_ok = false;
    }
  };

  TablePrinter table({"scenario", "cache", "arrivals", "qpk", "p50", "p99", "hits",
                      "misses", "peak_leased"});
  const auto add_row = [&](const Scenario& scenario, const char* variant,
                           const service::ServiceRunStats& stats) {
    table.AddRow({scenario.name, variant, std::to_string(stats.arrivals),
                  FormatDouble(stats.throughput_qpk, 3),
                  std::to_string(stats.latency_p50_ticks),
                  std::to_string(stats.latency_p99_ticks),
                  std::to_string(stats.cache.hits), std::to_string(stats.cache.misses),
                  std::to_string(stats.peak_servers_leased)});
    telemetry::SnapshotServiceStatsInto(stats, scenario.name + "_" + variant,
                                        &report.metrics);
  };

  for (size_t s = 0; s < scenarios.size(); ++s) {
    const Scenario& scenario = scenarios[s];
    const uint64_t seed = ExperimentSeed(HashCombine(0x5EAF00D, s));

    service::QueryService nocache(MakeConfig(scenario, /*cache_enabled=*/false, seed));
    RegisterCatalog(&nocache);
    const service::ServiceRunStats off = nocache.Run();
    check_run(off);
    add_row(scenario, "nocache", off);
    if (cache_disabled) continue;

    // One cached service, run twice: cold then warm. Identical workload
    // seed, so the arrival schedule is the same stream three times over.
    service::QueryService cached(MakeConfig(scenario, /*cache_enabled=*/true, seed));
    RegisterCatalog(&cached);
    const service::ServiceRunStats cold = cached.Run();
    const service::ServiceRunStats warm = cached.Run();
    check_run(cold);
    check_run(warm);
    add_row(scenario, "cold", cold);
    add_row(scenario, "warm", warm);

    // Claim 1: hits buy throughput and never cost tail latency.
    if (!(warm.throughput_qpk > cold.throughput_qpk &&
          cold.throughput_qpk >= off.throughput_qpk - 1e-9 &&
          warm.latency_p99_ticks <= cold.latency_p99_ticks)) {
      caching_pays_ok = false;
    }
    // Claim 2: the second identical run is served entirely from the cache.
    if (!(warm.cache.hits == warm.arrivals && warm.cache.misses == 0 &&
          warm.cache.insertions == 0)) {
      warm_all_hits_ok = false;
    }
    // Claim 3: cold misses == distinct structure keys touched, which the
    // isomorphic pair keeps strictly below the catalog size.
    if (cold.cache.misses >= cached.catalog_size() ||
        cold.cache.misses > distinct_shape_keys) {
      sharing_ok = false;
    }
    // Claim 4, cross-run half: warm loads repeat the cold loads exactly.
    for (size_t i = 0; i < warm.entry_fingerprints.size(); ++i) {
      if (warm.entry_fingerprints[i].executed && cold.entry_fingerprints[i].executed &&
          !(warm.entry_fingerprints[i] == cold.entry_fingerprints[i])) {
        exact_ok = false;
      }
    }
  }
  table.Print(std::cout);

  std::cout << "caching pays (warm > cold >= off, warm p99 <= cold p99): "
            << (caching_pays_ok ? "yes" : "NO")
            << "\nwarm runs 100% hits: " << (warm_all_hits_ok ? "yes" : "NO")
            << "\nisomorphic shapes share cache entries: " << (sharing_ok ? "yes" : "NO")
            << "\nservice loads == standalone pipeline loads: " << (exact_ok ? "yes" : "NO")
            << "\nno bypasses or load mismatches: " << (clean_ok ? "yes" : "NO") << "\n";

  FinishReport(report, caching_pays_ok && warm_all_hits_ok && sharing_ok && exact_ok &&
                           clean_ok);
  return report;
}

}  // namespace bench
}  // namespace coverpack
