/// Chaos tests (ctest label: chaos): the resilience subsystem under
/// deliberately brutal fault schedules — crash storms that exhaust the
/// retry budget, heavy per-row corruption, universal stragglers, and
/// mixed schedules — always checked against the same invariant: the
/// healed run is bit-identical to the fault-free run, and the recovery
/// ledger accounts for every retry, resend, and backoff unit exactly.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/acyclic_join.h"
#include "core/one_round.h"
#include "mpc/cluster.h"
#include "mpc/hypercube.h"
#include "query/catalog.h"
#include "report_compare.h"
#include "resilience/cost_model.h"
#include "resilience/fault_injector.h"
#include "resilience/fault_plan.h"
#include "service/query_service.h"
#include "util/ledger.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/generators.h"

namespace coverpack {
namespace {

using resilience::FaultSpec;
using resilience::ScopedFaultInjection;
using testutil::RelationsEqual;

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_threads_ = ThreadPool::GlobalThreads();
    Ledger::Global().Reset();
  }
  void TearDown() override { ThreadPool::SetGlobalThreads(saved_threads_); }

 private:
  unsigned saved_threads_ = 0;
};

/// One hypercube box-join run; records rows (collect mode), so both the
/// crash path and the per-row corruption path are exercised.
struct BoxRun {
  mpc::HypercubeResult result;
  LoadTracker tracker{1};
};

BoxRun RunBoxJoin(uint32_t p, size_t n) {
  const Hypergraph box = catalog::BoxJoin();
  const Instance instance = workload::MatchingInstance(box, n);
  std::vector<uint64_t> sizes;
  for (size_t r = 0; r < instance.num_relations(); ++r) sizes.push_back(instance[r].size());
  const mpc::ShareVector shares = mpc::OptimizeSharesForSizes(box, sizes, p);
  Cluster cluster(p);
  BoxRun run;
  run.result = mpc::HypercubeJoin(&cluster, box, instance, shares, /*round=*/0,
                                  /*collect=*/true);
  run.tracker = cluster.tracker();
  return run;
}

bool BoxRunsIdentical(const BoxRun& a, const BoxRun& b) {
  if (a.result.output_count != b.result.output_count ||
      a.result.max_receive_load != b.result.max_receive_load ||
      a.result.results.num_shards() != b.result.results.num_shards() ||
      a.tracker != b.tracker) {
    return false;
  }
  for (uint32_t s = 0; s < a.result.results.num_shards(); ++s) {
    if (a.result.results.shard(s).raw() != b.result.results.shard(s).raw()) return false;
  }
  return true;
}

TEST_F(ChaosTest, TotalCrashStormDegradesToFullRerunsYetStaysExact) {
  // Every attempt of every exchange crashes every receiving server; a tiny
  // retry budget forces the graceful-degradation path (full deterministic
  // rerun) on each exchange — and the answer still cannot change.
  const BoxRun clean = RunBoxJoin(16, 2048);
  FaultSpec spec;
  spec.seed = 0xC405;
  spec.crash_rate = 1.0;
  spec.max_attempts = 2;
  BoxRun stormed;
  {
    ScopedFaultInjection injection(spec);
    stormed = RunBoxJoin(16, 2048);
  }
  EXPECT_TRUE(BoxRunsIdentical(clean, stormed));
  const Metrics ledger = Ledger::Global().Read();
  EXPECT_GT(ledger.CounterValue("fault.exchanges_faulted"), 0u);
  EXPECT_EQ(ledger.CounterValue("recovery.full_reruns"), ledger.CounterValue("fault.exchanges_faulted"));
  EXPECT_EQ(ledger.CounterValue("recovery.retries"), 2 * ledger.CounterValue("fault.exchanges_faulted"));
  EXPECT_GT(ledger.CounterValue("recovery.tuples_resent_full_rerun"), 0u);
  // Every faulted exchange burned its whole budget plus the clean replay.
  for (const double attempts : ledger.Samples("recovery.attempts_per_exchange")) {
    EXPECT_EQ(attempts, static_cast<double>(spec.max_attempts + 1));
  }
}

TEST_F(ChaosTest, HeavyCorruptionIsHealedTupleForTuple) {
  // Nearly every attempt mangles rows (30% dropped, 30% duplicated);
  // recovery must keep retrying until a provably clean delivery lands.
  const BoxRun clean = RunBoxJoin(32, 2048);
  FaultSpec spec;
  spec.seed = 0xD153A5E;
  spec.drop_rate = 0.3;
  spec.duplicate_rate = 0.3;
  spec.max_attempts = 8;
  BoxRun mangled;
  {
    ScopedFaultInjection injection(spec);
    mangled = RunBoxJoin(32, 2048);
  }
  EXPECT_TRUE(BoxRunsIdentical(clean, mangled));
  const Metrics ledger = Ledger::Global().Read();
  EXPECT_GT(ledger.CounterValue("fault.rows_dropped"), 0u);
  EXPECT_GT(ledger.CounterValue("fault.rows_duplicated"), 0u);
  EXPECT_GT(ledger.CounterValue("recovery.tuples_resent_corruption"), 0u);
  EXPECT_EQ(ledger.CounterValue("fault.crashes"), 0u);
}

TEST_F(ChaosTest, AcyclicPipelineSurvivesMixedChaos) {
  // Multi-round acyclic decomposition under crashes + corruption +
  // universal stragglers, with trace recording on: results, loads, and the
  // decomposition tree all match the quiet run.
  const Hypergraph query = catalog::Path(4);
  Rng rng(29);
  const Instance instance = workload::UniformInstance(query, 3000, 250, &rng);
  AcyclicRunOptions options;
  options.policy = RunPolicy::kOptimal;
  options.collect = true;
  options.trace = true;
  options.p = 64;
  const AcyclicRunResult clean = ComputeAcyclicJoin(query, instance, options);

  FaultSpec spec;
  spec.seed = 0xBADBAD;
  spec.crash_rate = 0.6;
  spec.drop_rate = 0.05;
  spec.duplicate_rate = 0.05;
  spec.straggler_rate = 1.0;
  spec.straggler_severity = 16.0;
  spec.max_attempts = 12;
  AcyclicRunResult chaotic;
  {
    ScopedFaultInjection injection(spec);
    chaotic = ComputeAcyclicJoin(query, instance, options);
  }
  EXPECT_EQ(clean.output_count, chaotic.output_count);
  EXPECT_EQ(clean.max_load, chaotic.max_load);
  EXPECT_EQ(clean.rounds, chaotic.rounds);
  EXPECT_EQ(clean.total_communication, chaotic.total_communication);
  EXPECT_TRUE(RelationsEqual(clean.results, chaotic.results));
  EXPECT_TRUE(clean.load_tracker == chaotic.load_tracker);
  EXPECT_EQ(TraceToString(clean.trace), TraceToString(chaotic.trace));

  const Metrics ledger = Ledger::Global().Read();
  EXPECT_GT(ledger.CounterValue("fault.crashes"), 0u);
  EXPECT_EQ(ledger.CounterValue("recovery.tuples_resent"),
            ledger.CounterValue("recovery.tuples_resent_crash") +
                ledger.CounterValue("recovery.tuples_resent_corruption") +
                ledger.CounterValue("recovery.tuples_resent_full_rerun"));
  for (const double attempts : ledger.Samples("recovery.attempts_per_exchange")) {
    EXPECT_LE(attempts, static_cast<double>(spec.max_attempts + 1));
  }
  // Stragglers never change results, only the simulated makespan: with the
  // whole cluster straggling the model degrades by exactly the severity.
  const resilience::MakespanBreakdown breakdown =
      resilience::SimulateMakespan(clean.load_tracker, resilience::FaultPlan(spec));
  EXPECT_DOUBLE_EQ(breakdown.slowdown, spec.straggler_severity);
}

TEST_F(ChaosTest, ChaosScheduleAndLedgerAreThreadCountInvariant) {
  // The whole point of content-keyed fault decisions: the injected chaos —
  // not just the healed result — is the same schedule at any parallelism.
  FaultSpec spec;
  spec.seed = 0x7EA;
  spec.crash_rate = 0.5;
  spec.drop_rate = 0.1;
  spec.duplicate_rate = 0.1;
  spec.max_attempts = 10;

  ThreadPool::SetGlobalThreads(1);
  BoxRun serial;
  {
    ScopedFaultInjection injection(spec);
    serial = RunBoxJoin(16, 4096);
  }
  const Metrics serial_ledger = Ledger::Global().Read();

  Ledger::Global().Reset();
  ThreadPool::SetGlobalThreads(4);
  BoxRun parallel;
  {
    ScopedFaultInjection injection(spec);
    parallel = RunBoxJoin(16, 4096);
  }

  EXPECT_TRUE(BoxRunsIdentical(serial, parallel));
  EXPECT_GT(serial_ledger.CounterValue("fault.exchanges_faulted"), 0u);
  EXPECT_EQ(serial_ledger, Ledger::Global().Read());
}

TEST_F(ChaosTest, BackoffFollowsTheCappedExponentialSchedule) {
  // crash_rate 1 with a deep budget: attempt a pays min(2^a, 64) backoff
  // units, so ten faulty attempts cross the cap and every faulted exchange
  // pays 1 + 2 + 4 + 8 + 16 + 32 + 4 * 64 = 319 units.
  static_assert(resilience::kBackoffBase == 1 && resilience::kBackoffCap == 64);
  FaultSpec spec;
  spec.seed = 0xB0FF;
  spec.crash_rate = 1.0;
  spec.max_attempts = 10;
  {
    ScopedFaultInjection injection(spec);
    RunBoxJoin(4, 256);
  }
  const Metrics ledger = Ledger::Global().Read();
  ASSERT_GT(ledger.CounterValue("fault.exchanges_faulted"), 0u);
  EXPECT_EQ(ledger.CounterValue("recovery.backoff_units"),
            319 * ledger.CounterValue("fault.exchanges_faulted"));
}

TEST_F(ChaosTest, RepeatedChaosRunsAreReproducible) {
  // Two identical chaotic runs produce identical ledgers: the fault
  // schedule is a pure function of the spec and the exchanged content.
  FaultSpec spec;
  spec.seed = 0x5EED;
  spec.crash_rate = 0.4;
  spec.drop_rate = 0.05;
  spec.duplicate_rate = 0.05;
  BoxRun first;
  {
    ScopedFaultInjection injection(spec);
    first = RunBoxJoin(16, 1024);
  }
  const Metrics first_ledger = Ledger::Global().Read();
  Ledger::Global().Reset();
  BoxRun second;
  {
    ScopedFaultInjection injection(spec);
    second = RunBoxJoin(16, 1024);
  }
  EXPECT_TRUE(BoxRunsIdentical(first, second));
  EXPECT_GT(first_ledger.CounterValue("fault.crashes"), 0u);
  EXPECT_EQ(first_ledger, Ledger::Global().Read());
}

// Recovery must compose with the query service: a full client workload —
// many concurrent in-flight pipelines on leased sub-clusters — run under a
// heavy mixed fault schedule yields the exact digest of the fault-free
// run. Every completion tick, latency percentile, cache counter, and load
// fingerprint survives the chaos.
TEST_F(ChaosTest, QueryServiceSurvivesCrashStormBitIdentically) {
  const auto run_service = [] {
    service::ServiceConfig config;
    config.total_servers = 128;
    config.servers_per_query = 32;
    config.workload.clients = 4;
    config.workload.queries_per_client = 5;
    config.workload.seed = 0xCAFE;
    service::QueryService svc(config);
    svc.RegisterQuery("line3", catalog::Line3(),
                      workload::MatchingInstance(catalog::Line3(), 512));
    svc.RegisterQuery("triangle", catalog::Triangle(),
                      workload::MatchingInstance(catalog::Triangle(), 512));
    svc.RegisterQuery("star3", catalog::Star(3),
                      workload::MatchingInstance(catalog::Star(3), 512));
    return svc.Run();
  };

  ThreadPool::SetGlobalThreads(4);
  const service::ServiceRunStats clean = run_service();

  FaultSpec spec;
  spec.seed = 0xBAD5EED;
  spec.crash_rate = 0.15;
  spec.drop_rate = 0.01;
  spec.duplicate_rate = 0.01;
  service::ServiceRunStats faulted;
  {
    ScopedFaultInjection injection(spec);
    faulted = run_service();
  }
  const Metrics ledger = Ledger::Global().Read();
  EXPECT_GT(ledger.CounterValue("fault.crashes"), 0u);  // the storm must actually hit the pipelines
  EXPECT_EQ(clean.Digest(), faulted.Digest());

  // And the chaotic run itself is thread-count invariant.
  ThreadPool::SetGlobalThreads(1);
  service::ServiceRunStats faulted_serial;
  {
    ScopedFaultInjection injection(spec);
    faulted_serial = run_service();
  }
  EXPECT_EQ(faulted.Digest(), faulted_serial.Digest());
}

// The plan chooser must be blind to the fault layer: a crash-storm run
// makes the *same* plan decision for every admitted query as the clean
// run — same strategy, same estimated load, same chooser tallies — and
// the full run digest (which embeds both per-outcome strategy and the
// planner ledger) stays byte-identical.
TEST_F(ChaosTest, CrashStormLeavesPlanDecisionsIdentical) {
  const auto run_service = [] {
    service::ServiceConfig config;
    config.total_servers = 128;
    config.servers_per_query = 32;
    config.workload.clients = 3;
    config.workload.queries_per_client = 6;
    config.workload.seed = 0x9A5;
    service::QueryService svc(config);
    // A menu that exercises every strategy: connected acyclic matching
    // (output-balanced territory), a skewed star (multi-round territory),
    // and a cyclic triangle (one-round only).
    svc.RegisterQuery("path3", catalog::Path(3),
                      workload::MatchingInstance(catalog::Path(3), 512));
    Rng rng(0x57AB);
    svc.RegisterQuery("star3", catalog::Star(3),
                      workload::ZipfInstance(catalog::Star(3), 512, 512, 1.1, &rng));
    svc.RegisterQuery("triangle", catalog::Triangle(),
                      workload::MatchingInstance(catalog::Triangle(), 512));
    return svc.Run();
  };

  ThreadPool::SetGlobalThreads(4);
  const service::ServiceRunStats clean = run_service();

  FaultSpec spec;
  spec.seed = 0x570A4;
  spec.crash_rate = 0.2;
  spec.drop_rate = 0.01;
  spec.duplicate_rate = 0.01;
  service::ServiceRunStats stormed;
  {
    ScopedFaultInjection injection(spec);
    stormed = run_service();
  }
  const Metrics ledger = Ledger::Global().Read();
  EXPECT_GT(ledger.CounterValue("fault.crashes"), 0u);  // the storm must actually hit the pipelines

  // Decision-level comparison first, so a failure names the query whose
  // plan flipped rather than pointing at an opaque digest diff.
  ASSERT_EQ(clean.outcomes.size(), stormed.outcomes.size());
  for (size_t i = 0; i < clean.outcomes.size(); ++i) {
    EXPECT_EQ(clean.outcomes[i].strategy, stormed.outcomes[i].strategy) << i;
    EXPECT_EQ(clean.outcomes[i].planner_est_load, stormed.outcomes[i].planner_est_load)
        << i;
  }
  EXPECT_EQ(clean.planner.decisions_one_round, stormed.planner.decisions_one_round);
  EXPECT_EQ(clean.planner.decisions_acyclic, stormed.planner.decisions_acyclic);
  EXPECT_EQ(clean.planner.decisions_output_balanced,
            stormed.planner.decisions_output_balanced);
  EXPECT_EQ(clean.planner.cache_hits, stormed.planner.cache_hits);
  EXPECT_EQ(clean.planner.cache_misses, stormed.planner.cache_misses);
  EXPECT_GT(clean.planner.TotalDecisions(), 0u);
  EXPECT_EQ(clean.Digest(), stormed.Digest());
}


/// The ledger of one fixed cyclic run: the skew-aware one-round
/// triangle on 64 servers with collection on, so routed rows draw their
/// per-row dice. Fault decisions are content-keyed, so the ledger is a pure
/// function of (spec, instance).
Metrics CyclicStormLedger(const FaultSpec& spec) {
  const Hypergraph triangle = catalog::Triangle();
  Rng rng(0x5707);
  const Instance instance = workload::ZipfInstance(triangle, 4000, 600, 0.8, &rng);
  OneRoundOptions options;
  options.collect = true;
  const RunResult clean = ComputeOneRoundSkewAware(triangle, instance, 64, options);
  Ledger::Global().Reset();
  RunResult stormed;
  {
    ScopedFaultInjection injection(spec);
    stormed = ComputeOneRoundSkewAware(triangle, instance, 64, options);
  }
  EXPECT_TRUE(RelationsEqual(clean.results, stormed.results));
  EXPECT_TRUE(clean.load_tracker == stormed.load_tracker);
  return Ledger::Global().Read();
}

/// Sum of a sample vector (integer-valued, so exact in any order).
double SampleSum(const std::vector<double>& samples) {
  double sum = 0.0;
  for (const double sample : samples) sum += sample;
  return sum;
}

// The two tests below pin every fault.*/recovery.* key of that run. A
// change that moves a single crash, drop or duplicate, or the accounting of
// one, fails here; the clean-vs-faulted report diffs drop these namespaces
// and cannot.
TEST_F(ChaosTest, CiCrashStormLedgerIsPinned) {
  FaultSpec spec;
  spec.seed = 7;
  spec.crash_rate = 0.05;
  spec.drop_rate = 0.001;
  spec.duplicate_rate = 0.001;
  const Metrics ledger = CyclicStormLedger(spec);
  EXPECT_EQ(ledger.CounterValue("fault.exchanges_injected"), 1u);
  EXPECT_EQ(ledger.CounterValue("fault.exchanges_faulted"), 1u);
  EXPECT_EQ(ledger.CounterValue("fault.crashes"), 15u);
  EXPECT_EQ(ledger.CounterValue("fault.rows_dropped"), 177u);
  EXPECT_EQ(ledger.CounterValue("fault.rows_duplicated"), 194u);
  EXPECT_EQ(ledger.CounterValue("recovery.retries"), 4u);
  EXPECT_EQ(ledger.CounterValue("recovery.full_reruns"), 1u);
  EXPECT_EQ(ledger.CounterValue("recovery.backoff_units"), 15u);
  EXPECT_EQ(ledger.CounterValue("recovery.tuples_resent"), 199478u);
  EXPECT_EQ(ledger.CounterValue("recovery.tuples_resent_crash"), 11417u);
  EXPECT_EQ(ledger.CounterValue("recovery.tuples_resent_corruption"), 140061u);
  EXPECT_EQ(ledger.CounterValue("recovery.tuples_resent_full_rerun"), 48000u);
  EXPECT_EQ(ledger.CounterValue("recovery.checkpoints_captured"), 1u);
  EXPECT_EQ(ledger.CounterValue("recovery.checkpoint_tuples"), 0u);
  EXPECT_EQ(ledger.MaxValue("recovery.max_single_resend"), 861u);
  EXPECT_EQ(ledger.Samples("recovery.attempts_per_exchange").size(), 1u);
  EXPECT_EQ(SampleSum(ledger.Samples("recovery.attempts_per_exchange")), 5.0);
  EXPECT_EQ(SampleSum(ledger.Samples("recovery.resent_per_faulted_exchange")), 199478.0);
}

TEST_F(ChaosTest, HeavyCrashStormLedgerIsPinned) {
  FaultSpec spec;
  spec.seed = 7;
  spec.crash_rate = 0.15;
  spec.drop_rate = 0.01;
  spec.duplicate_rate = 0.01;
  spec.max_attempts = 2;
  const Metrics ledger = CyclicStormLedger(spec);
  EXPECT_EQ(ledger.CounterValue("fault.exchanges_injected"), 1u);
  EXPECT_EQ(ledger.CounterValue("fault.exchanges_faulted"), 1u);
  EXPECT_EQ(ledger.CounterValue("fault.crashes"), 16u);
  EXPECT_EQ(ledger.CounterValue("fault.rows_dropped"), 829u);
  EXPECT_EQ(ledger.CounterValue("fault.rows_duplicated"), 834u);
  EXPECT_EQ(ledger.CounterValue("recovery.retries"), 2u);
  EXPECT_EQ(ledger.CounterValue("recovery.full_reruns"), 1u);
  EXPECT_EQ(ledger.CounterValue("recovery.backoff_units"), 3u);
  EXPECT_EQ(ledger.CounterValue("recovery.tuples_resent"), 144000u);
  EXPECT_EQ(ledger.CounterValue("recovery.tuples_resent_crash"), 12272u);
  EXPECT_EQ(ledger.CounterValue("recovery.tuples_resent_corruption"), 83728u);
  EXPECT_EQ(ledger.CounterValue("recovery.tuples_resent_full_rerun"), 48000u);
  EXPECT_EQ(ledger.CounterValue("recovery.checkpoints_captured"), 1u);
  EXPECT_EQ(ledger.CounterValue("recovery.checkpoint_tuples"), 0u);
  EXPECT_EQ(ledger.MaxValue("recovery.max_single_resend"), 861u);
  EXPECT_EQ(ledger.Samples("recovery.attempts_per_exchange").size(), 1u);
  EXPECT_EQ(SampleSum(ledger.Samples("recovery.attempts_per_exchange")), 3.0);
  EXPECT_EQ(SampleSum(ledger.Samples("recovery.resent_per_faulted_exchange")), 144000.0);
}

}  // namespace
}  // namespace coverpack
