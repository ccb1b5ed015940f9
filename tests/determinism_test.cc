/// \file determinism_test.cc
/// \brief The determinism golden tests: the simulator must be bit-identical
/// at any thread count.
///
/// Two layers of coverage:
///
///  * every *fast* registered experiment runs at --threads=1 and
///    --threads=4 and must produce byte-identical RunReport JSON
///    (wall-clock timers masked — they are the only sanctioned
///    nondeterminism);
///  * seeded end-to-end pipelines (workload generation -> acyclic /
///    one-round execution) compare full LoadTracker matrices, result
///    relations, and decomposition traces across thread counts for
///    several seeds.
///
/// This binary links the bench experiment registry, so it lives apart
/// from cp_tests (which must not depend on bench/).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "core/acyclic_join.h"
#include "core/one_round.h"
#include "experiments/experiments.h"
#include "mpc/cluster.h"
#include "mpc/exchange.h"
#include "mpc/load_tracker.h"
#include "planner/differential.h"
#include "planner/plan_chooser.h"
#include "planner/stats.h"
#include "query/catalog.h"
#include "relation/instance.h"
#include "report_compare.h"
#include "resilience/fault_injector.h"
#include "service/query_service.h"
#include "telemetry/run_report.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/generators.h"

namespace coverpack {
namespace {

using testutil::ComparableJson;
using testutil::RelationsEqual;

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = ThreadPool::GlobalThreads(); }
  void TearDown() override { ThreadPool::SetGlobalThreads(saved_threads_); }

 private:
  unsigned saved_threads_ = 1;
};

TEST_F(DeterminismTest, FastExperimentsAreBitIdenticalAcrossThreadCounts) {
  for (const bench::Experiment& experiment : bench::AllExperiments()) {
    if (!experiment.fast) continue;
    SCOPED_TRACE(experiment.id);
    ThreadPool::SetGlobalThreads(1);
    telemetry::RunReport serial = bench::RunExperiment(experiment);
    ThreadPool::SetGlobalThreads(4);
    telemetry::RunReport parallel = bench::RunExperiment(experiment);
    EXPECT_EQ(serial.ok, parallel.ok);
    EXPECT_EQ(ComparableJson(serial), ComparableJson(parallel));
  }
}

/// One randomized exchange: routes `data` over p servers with a seeded,
/// index-determined route function (occasional replication), executes it,
/// and returns the delivered shards plus the cluster tracker and stats.
struct ExchangeOutcome {
  std::vector<Relation> shards;
  LoadTracker tracker;
  mpc::ExchangeStats stats;
};

ExchangeOutcome RunRandomExchange(const Relation& data, uint32_t p, uint64_t salt) {
  Cluster cluster(p);
  std::vector<Relation> shards(p, Relation(data.attrs()));
  mpc::ExchangePlan plan = mpc::Exchange::Plan(
      p, data,
      [p, salt](size_t i, auto emit) {
        uint64_t h = SplitSeed(salt, i);
        emit(h % p);
        if ((h >> 32) % 4 == 0) emit((h >> 16) % p);  // ~25% of rows replicate
      },
      /*record=*/true, /*emits_per_row_hint=*/2);
  mpc::ExchangeStats stats = mpc::Exchange::Execute(
      &cluster, 0, plan, [&shards](size_t, uint32_t s) { return &shards[s]; },
      "determinism_property");
  return {std::move(shards), cluster.tracker(), stats};
}

TEST_F(DeterminismTest, ExchangeConservesTuplesAndDeliversBitIdentically) {
  // Property: for random relations, route functions, and cluster widths,
  // the total tuples sent equal the sum of per-server tracker charges for
  // the round, and delivery is bit-identical at 1 vs 4 threads. Relations
  // span several routing shards (> 2 * kExchangeRouteGrain rows) so the
  // parallel path genuinely exercises the shard merge.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(SplitSeed(0xC0FFEE, seed));
    const uint32_t p = static_cast<uint32_t>(rng.UniformInRange(1, 13));
    const uint32_t width = static_cast<uint32_t>(rng.UniformInRange(1, 4));
    const size_t rows = static_cast<size_t>(rng.UniformInRange(1, 3 * 2048));
    Relation data(AttrSet::FirstN(width));
    std::vector<Value> row(width);
    for (size_t i = 0; i < rows; ++i) {
      for (uint32_t c = 0; c < width; ++c) row[c] = rng.Next();
      data.AppendRow(std::span<const Value>(row));
    }
    const uint64_t salt = rng.Next();

    ThreadPool::SetGlobalThreads(1);
    ExchangeOutcome serial = RunRandomExchange(data, p, salt);
    ThreadPool::SetGlobalThreads(4);
    ExchangeOutcome parallel = RunRandomExchange(data, p, salt);

    // Conservation: sent == delivered == charged == sum of tracker cells.
    uint64_t tracker_sum = 0;
    for (uint32_t s = 0; s < p; ++s) tracker_sum += serial.tracker.At(0, s);
    EXPECT_EQ(serial.stats.delivered, serial.stats.planned);
    EXPECT_EQ(serial.stats.charged, serial.stats.planned);
    EXPECT_EQ(tracker_sum, serial.stats.planned);
    uint64_t shard_sum = 0;
    for (const Relation& shard : serial.shards) shard_sum += shard.size();
    EXPECT_EQ(shard_sum, serial.stats.delivered);

    // Thread-count invariance: same tracker, same shard bytes.
    EXPECT_TRUE(serial.tracker == parallel.tracker);
    ASSERT_EQ(serial.shards.size(), parallel.shards.size());
    for (uint32_t s = 0; s < p; ++s) {
      EXPECT_EQ(serial.shards[s].raw(), parallel.shards[s].raw());
      EXPECT_EQ(serial.shards[s].size(), parallel.shards[s].size());
    }
  }
}

TEST_F(DeterminismTest, AcyclicJoinIsBitIdenticalAcrossThreadCounts) {
  Hypergraph query = catalog::Path(4);
  AcyclicRunOptions options;
  options.policy = RunPolicy::kOptimal;
  options.collect = true;
  options.p = 64;
  options.trace = true;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    ThreadPool::SetGlobalThreads(1);
    Rng serial_rng(seed);
    Instance serial_instance = workload::UniformInstance(query, 2000, 200, &serial_rng);
    AcyclicRunResult serial = ComputeAcyclicJoin(query, serial_instance, options);

    ThreadPool::SetGlobalThreads(4);
    Rng parallel_rng(seed);
    Instance parallel_instance = workload::UniformInstance(query, 2000, 200, &parallel_rng);
    AcyclicRunResult parallel = ComputeAcyclicJoin(query, parallel_instance, options);

    EXPECT_EQ(serial.output_count, parallel.output_count);
    EXPECT_EQ(serial.max_load, parallel.max_load);
    EXPECT_EQ(serial.rounds, parallel.rounds);
    EXPECT_EQ(serial.servers_used, parallel.servers_used);
    EXPECT_EQ(serial.total_communication, parallel.total_communication);
    EXPECT_EQ(serial.load_threshold, parallel.load_threshold);
    EXPECT_TRUE(RelationsEqual(serial.results, parallel.results));
    EXPECT_TRUE(serial.load_tracker == parallel.load_tracker);
    EXPECT_EQ(TraceToString(serial.trace), TraceToString(parallel.trace));
  }
}

TEST_F(DeterminismTest, FastExperimentsAreBitIdenticalUnderFaultInjection) {
  // The resilience tentpole guarantee: running ANY experiment under a
  // FaultPlan with crashes and message corruption yields a report that is
  // byte-identical to the fault-free run once the fault./recovery. ledger
  // keys are stripped — and the fault-injected run itself is byte-identical
  // (ledger included) at 1 vs 4 threads, because every fault decision is a
  // pure function of exchange content, not of scheduling.
  resilience::FaultSpec spec;
  spec.seed = 0xFA17;
  spec.crash_rate = 0.05;
  spec.drop_rate = 0.001;
  spec.duplicate_rate = 0.001;
  for (const bench::Experiment& experiment : bench::AllExperiments()) {
    if (!experiment.fast) continue;
    SCOPED_TRACE(experiment.id);
    ThreadPool::SetGlobalThreads(4);
    telemetry::RunReport clean = bench::RunExperiment(experiment);
    telemetry::RunReport faulted_serial;
    telemetry::RunReport faulted_parallel;
    {
      resilience::ScopedFaultInjection injection(spec);
      ThreadPool::SetGlobalThreads(1);
      faulted_serial = bench::RunExperiment(experiment);
      ThreadPool::SetGlobalThreads(4);
      faulted_parallel = bench::RunExperiment(experiment);
    }
    EXPECT_EQ(clean.ok, faulted_parallel.ok);
    // Both sides dropped: for almost every experiment the clean report has
    // no fault.*/recovery.* keys, but resilience_overhead injects faults
    // internally and legitimately records them even when no outer
    // FaultPlan is installed.
    EXPECT_EQ(ComparableJson(clean, {"fault.", "recovery."}),
              ComparableJson(faulted_parallel, {"fault.", "recovery."}));
    EXPECT_EQ(ComparableJson(faulted_serial), ComparableJson(faulted_parallel));
  }
}

TEST_F(DeterminismTest, AcyclicJoinRecoversBitIdenticallyUnderFaults) {
  // End-to-end pipeline under heavy faults: materialized results, tracker,
  // and decomposition trace all match the fault-free run exactly.
  Hypergraph query = catalog::Path(4);
  AcyclicRunOptions options;
  options.policy = RunPolicy::kOptimal;
  options.collect = true;
  options.p = 64;
  options.trace = true;
  Rng rng(11);
  Instance instance = workload::UniformInstance(query, 2000, 200, &rng);
  ThreadPool::SetGlobalThreads(4);
  AcyclicRunResult clean = ComputeAcyclicJoin(query, instance, options);

  resilience::FaultSpec spec;
  spec.seed = 0xFA17;
  spec.crash_rate = 0.2;
  spec.drop_rate = 0.01;
  spec.duplicate_rate = 0.01;
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    ThreadPool::SetGlobalThreads(threads);
    resilience::ScopedFaultInjection injection(spec);
    AcyclicRunResult faulted = ComputeAcyclicJoin(query, instance, options);
    EXPECT_EQ(clean.output_count, faulted.output_count);
    EXPECT_EQ(clean.max_load, faulted.max_load);
    EXPECT_EQ(clean.rounds, faulted.rounds);
    EXPECT_EQ(clean.servers_used, faulted.servers_used);
    EXPECT_EQ(clean.total_communication, faulted.total_communication);
    EXPECT_TRUE(RelationsEqual(clean.results, faulted.results));
    EXPECT_TRUE(clean.load_tracker == faulted.load_tracker);
    EXPECT_EQ(TraceToString(clean.trace), TraceToString(faulted.trace));
  }
}

TEST_F(DeterminismTest, OneRoundIsBitIdenticalAcrossThreadCounts) {
  Hypergraph query = catalog::Triangle();
  OneRoundOptions options;
  options.collect = true;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    ThreadPool::SetGlobalThreads(1);
    Rng serial_rng(seed);
    Instance serial_instance = workload::ZipfInstance(query, 2000, 300, 1.1, &serial_rng);
    RunResult serial = ComputeOneRoundSkewAware(query, serial_instance, 64, options);

    ThreadPool::SetGlobalThreads(4);
    Rng parallel_rng(seed);
    Instance parallel_instance = workload::ZipfInstance(query, 2000, 300, 1.1, &parallel_rng);
    RunResult parallel = ComputeOneRoundSkewAware(query, parallel_instance, 64, options);

    EXPECT_EQ(serial.output_count, parallel.output_count);
    EXPECT_EQ(serial.max_load, parallel.max_load);
    EXPECT_EQ(serial.servers_used, parallel.servers_used);
    EXPECT_TRUE(RelationsEqual(serial.results, parallel.results));
    EXPECT_TRUE(serial.load_tracker == parallel.load_tracker);
  }
}

// The fast-experiment loops above already cover service_throughput, but
// the service's whole point is simulated-clock determinism, so it gets an
// explicit 1-vs-4-thread byte diff of the full report — cache hit/miss
// counters, latency percentiles, per-scenario throughput and all.
TEST_F(DeterminismTest, ServiceThroughputReportIsBitIdenticalAcrossThreadCounts) {
  const bench::Experiment* experiment = bench::FindExperiment("service_throughput");
  ASSERT_NE(experiment, nullptr);
  ThreadPool::SetGlobalThreads(1);
  telemetry::RunReport serial = bench::RunExperiment(*experiment);
  ThreadPool::SetGlobalThreads(4);
  telemetry::RunReport parallel = bench::RunExperiment(*experiment);
  EXPECT_TRUE(serial.ok);
  const std::string serial_json = ComparableJson(serial);
  EXPECT_EQ(serial_json, ComparableJson(parallel));
  // The diff above is only meaningful if the cache telemetry is really in
  // the compared bytes.
  EXPECT_NE(serial_json.find("cache.open_c8_warm.hits"), std::string::npos);
  EXPECT_NE(serial_json.find("service.open_c8_cold.throughput_qpk"), std::string::npos);
}

TEST_F(DeterminismTest, PlannerAblationReportIsBitIdenticalAcrossThreadCounts) {
  const bench::Experiment* experiment = bench::FindExperiment("planner_ablation");
  ASSERT_NE(experiment, nullptr);
  ThreadPool::SetGlobalThreads(1);
  telemetry::RunReport serial = bench::RunExperiment(*experiment);
  ThreadPool::SetGlobalThreads(4);
  telemetry::RunReport parallel = bench::RunExperiment(*experiment);
  EXPECT_TRUE(serial.ok);
  const std::string serial_json = ComparableJson(serial);
  EXPECT_EQ(serial_json, ComparableJson(parallel));
  // The diff above is only meaningful if the planner telemetry is really
  // in the compared bytes.
  EXPECT_NE(serial_json.find("planner.ablation.decisions_total"), std::string::npos);
  EXPECT_NE(serial_json.find("planner.ablation.within_10pct_fraction"),
            std::string::npos);
  EXPECT_NE(serial_json.find("planner.ablation.cache_misses"), std::string::npos);
}

// The cluster subsystem's determinism contract, explicitly: the elastic
// sweep (speed-weighted routing, membership migrations, chaos composition)
// is byte-identical at 1 vs 4 threads, and a crash-storm FaultPlan wrapped
// around the whole experiment changes nothing but the fault.*/recovery.*
// namespaces. The cluster.* namespace records planned (content-determined)
// volumes, so both diffs compare it.
TEST_F(DeterminismTest, ClusterElasticReportIsBitIdenticalAcrossThreadsAndChaos) {
  const bench::Experiment* experiment = bench::FindExperiment("cluster_elastic");
  ASSERT_NE(experiment, nullptr);
  ThreadPool::SetGlobalThreads(1);
  telemetry::RunReport serial = bench::RunExperiment(*experiment);
  ThreadPool::SetGlobalThreads(4);
  telemetry::RunReport parallel = bench::RunExperiment(*experiment);
  EXPECT_TRUE(serial.ok);
  const std::string serial_json = ComparableJson(serial);
  EXPECT_EQ(serial_json, ComparableJson(parallel));
  // The diff above is only meaningful if the cluster ledger is really in
  // the compared bytes.
  EXPECT_NE(serial_json.find("cluster.tuples_migrated"), std::string::npos);
  EXPECT_NE(serial_json.find("cluster.migrations"), std::string::npos);

  resilience::FaultSpec storm;
  storm.seed = 0x57021;
  storm.crash_rate = 0.15;
  storm.drop_rate = 0.005;
  storm.duplicate_rate = 0.005;
  telemetry::RunReport stormy;
  {
    resilience::ScopedFaultInjection injection(storm);
    stormy = bench::RunExperiment(*experiment);
  }
  EXPECT_EQ(serial.ok, stormy.ok);
  EXPECT_EQ(ComparableJson(serial, {"fault.", "recovery."}),
            ComparableJson(stormy, {"fault.", "recovery."}));
}

TEST_F(DeterminismTest, PlanChooserDecisionDigestsAreThreadCountInvariant) {
  // The chooser reads shard-parallel statistics; every decision's byte
  // digest (algorithm, estimates, LP numbers, per-candidate table) must be
  // identical no matter how many threads built the stats.
  const auto corpus = planner::BuildDifferentialCorpus(0x9DEC1DE, 12);
  std::vector<std::string> serial;
  ThreadPool::SetGlobalThreads(1);
  for (const auto& c : corpus) {
    const planner::StatsSnapshot stats = planner::BuildStatsSnapshot(c.query, c.instance);
    serial.push_back(planner::PlanChooser::Choose(c.query, 32, stats).Digest());
  }
  ThreadPool::SetGlobalThreads(4);
  for (size_t i = 0; i < corpus.size(); ++i) {
    const planner::StatsSnapshot stats =
        planner::BuildStatsSnapshot(corpus[i].query, corpus[i].instance);
    EXPECT_EQ(serial[i],
              planner::PlanChooser::Choose(corpus[i].query, 32, stats).Digest())
        << corpus[i].name;
  }
}

// Cold-vs-warm cache invariance, straight on the service (no bench layer):
// the second identical run is served 100% from the cache, repeats every
// per-entry load fingerprint, and both runs are reproducible from scratch
// at a different thread count.
TEST_F(DeterminismTest, ServiceColdAndWarmRunsAreThreadCountInvariant) {
  const auto make_service = [] {
    service::ServiceConfig config;
    config.total_servers = 128;
    config.servers_per_query = 32;
    config.workload.clients = 4;
    config.workload.queries_per_client = 5;
    config.workload.seed = 0xD1CE;
    auto svc = std::make_unique<service::QueryService>(config);
    svc->RegisterQuery("path3", catalog::Path(3),
                       workload::MatchingInstance(catalog::Path(3), 512));
    svc->RegisterQuery("line3", catalog::Line3(),
                       workload::MatchingInstance(catalog::Line3(), 512));
    svc->RegisterQuery("triangle", catalog::Triangle(),
                       workload::MatchingInstance(catalog::Triangle(), 512));
    svc->RegisterQuery("star3", catalog::Star(3),
                       workload::MatchingInstance(catalog::Star(3), 512));
    return svc;
  };

  ThreadPool::SetGlobalThreads(1);
  auto serial_svc = make_service();
  const service::ServiceRunStats cold_serial = serial_svc->Run();
  const service::ServiceRunStats warm_serial = serial_svc->Run();

  ThreadPool::SetGlobalThreads(4);
  auto parallel_svc = make_service();
  const service::ServiceRunStats cold_parallel = parallel_svc->Run();
  const service::ServiceRunStats warm_parallel = parallel_svc->Run();

  // Byte-identical digests across thread counts, cold and warm alike —
  // the digest includes every outcome, fingerprint, and cache counter.
  EXPECT_EQ(cold_serial.Digest(), cold_parallel.Digest());
  EXPECT_EQ(warm_serial.Digest(), warm_parallel.Digest());

  // Warm means warm: 100% hits, nothing inserted, loads repeated exactly.
  EXPECT_EQ(warm_serial.cache.hits, warm_serial.arrivals);
  EXPECT_EQ(warm_serial.cache.misses, 0u);
  EXPECT_EQ(warm_serial.cache.insertions, 0u);
  EXPECT_GT(cold_serial.cache.misses, 0u);
  ASSERT_EQ(warm_serial.entry_fingerprints.size(), cold_serial.entry_fingerprints.size());
  for (size_t i = 0; i < warm_serial.entry_fingerprints.size(); ++i) {
    if (cold_serial.entry_fingerprints[i].executed &&
        warm_serial.entry_fingerprints[i].executed) {
      EXPECT_EQ(warm_serial.entry_fingerprints[i], cold_serial.entry_fingerprints[i]);
    }
  }
  EXPECT_EQ(warm_serial.load_mismatches, 0u);
  EXPECT_EQ(cold_serial.load_mismatches, 0u);
}

}  // namespace
}  // namespace coverpack
