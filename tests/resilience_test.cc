/// Tests for the resilience subsystem: the deterministic FaultPlan oracle,
/// the read-only ExchangeInterposer hook, FaultInjector recovery pricing
/// (bounded retries, full-rerun degradation, ledger accounting), and the
/// heterogeneity cost model.

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "mpc/cluster.h"
#include "mpc/exchange.h"
#include "mpc/load_tracker.h"
#include "resilience/cost_model.h"
#include "resilience/fault_injector.h"
#include "resilience/fault_plan.h"
#include "util/ledger.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace coverpack {
namespace {

using mpc::ExchangeDelivery;
using mpc::ExchangeInterposer;
using resilience::FaultInjector;
using resilience::FaultPlan;
using resilience::FaultSpec;
using resilience::ScopedFaultInjection;

// ---- FaultPlan -------------------------------------------------------------

TEST(FaultPlanTest, DecisionsArePureFunctionsOfTheirCoordinates) {
  FaultSpec spec;
  spec.seed = 42;
  spec.crash_rate = 0.3;
  spec.drop_rate = 0.3;
  spec.duplicate_rate = 0.3;
  spec.straggler_rate = 0.3;
  spec.straggler_severity = 4.0;
  FaultPlan plan(spec);
  const uint64_t key = FaultPlan::ExchangeKey(2, "hash_partition", 1000, 1000, 16);
  for (uint32_t attempt = 0; attempt < 4; ++attempt) {
    for (uint32_t server = 0; server < 16; ++server) {
      EXPECT_EQ(plan.CrashesDelivery(key, attempt, server),
                plan.CrashesDelivery(key, attempt, server));
      const FaultPlan::RowPrefix prefix = plan.RowFaultPrefix(key, attempt, server);
      EXPECT_EQ(plan.DropsRow(prefix, 0, 7),
                plan.DropsRow(plan.RowFaultPrefix(key, attempt, server), 0, 7));
      EXPECT_EQ(plan.DuplicatesRow(prefix, 0, 7),
                plan.DuplicatesRow(plan.RowFaultPrefix(key, attempt, server), 0, 7));
      EXPECT_EQ(plan.SpeedOf(attempt, server), plan.SpeedOf(attempt, server));
    }
  }
}

TEST(FaultPlanTest, RateZeroNeverFiresAndRateOneAlwaysFires) {
  FaultSpec never;
  never.seed = 7;
  FaultPlan quiet(never);
  FaultSpec always;
  always.seed = 7;
  always.crash_rate = 1.0;
  always.drop_rate = 1.0;
  FaultPlan loud(always);
  const uint64_t key = FaultPlan::ExchangeKey(0, "broadcast", 64, 0, 8);
  for (uint32_t s = 0; s < 8; ++s) {
    EXPECT_FALSE(quiet.CrashesDelivery(key, 0, s));
    EXPECT_FALSE(quiet.DropsRow(quiet.RowFaultPrefix(key, 0, s), 0, s));
    EXPECT_TRUE(loud.CrashesDelivery(key, 0, s));
    EXPECT_TRUE(loud.DropsRow(loud.RowFaultPrefix(key, 0, s), 0, s));
  }
}

TEST(FaultPlanTest, EmpiricalRatesTrackTheSpec) {
  FaultSpec spec;
  spec.seed = 99;
  spec.crash_rate = 0.2;
  spec.drop_rate = 0.3;
  spec.duplicate_rate = 0.1;
  FaultPlan plan(spec);
  uint64_t crashes = 0;
  uint64_t drops = 0;
  uint64_t dups = 0;
  const uint64_t trials = 20000;
  for (uint64_t i = 0; i < trials; ++i) {
    const uint64_t key = FaultPlan::ExchangeKey(static_cast<uint32_t>(i), "x", i, i, 4);
    crashes += plan.CrashesDelivery(key, 0, 1) ? 1 : 0;
    const FaultPlan::RowPrefix prefix = plan.RowFaultPrefix(key, 0, 1);
    drops += plan.DropsRow(prefix, i % 3, i) ? 1 : 0;
    dups += plan.DuplicatesRow(prefix, i % 3, i) ? 1 : 0;
  }
  const auto rate = [trials](uint64_t fired) {
    return static_cast<double>(fired) / static_cast<double>(trials);
  };
  EXPECT_GT(rate(crashes), 0.17);
  EXPECT_LT(rate(crashes), 0.23);
  EXPECT_GT(rate(drops), 0.27);
  EXPECT_LT(rate(drops), 0.33);
  EXPECT_GT(rate(dups), 0.08);
  EXPECT_LT(rate(dups), 0.12);
}

TEST(FaultPlanTest, SeedsAndCoordinatesDecorrelateDecisions) {
  FaultSpec a;
  a.seed = 1;
  a.crash_rate = 0.5;
  FaultSpec b = a;
  b.seed = 2;
  FaultPlan plan_a(a);
  FaultPlan plan_b(b);
  const uint64_t key1 = FaultPlan::ExchangeKey(0, "scatter", 100, 100, 8);
  const uint64_t key2 = FaultPlan::ExchangeKey(1, "scatter", 100, 100, 8);
  EXPECT_NE(key1, key2);
  EXPECT_NE(key1, FaultPlan::ExchangeKey(0, "linear", 100, 100, 8));
  bool differs = false;
  for (uint32_t s = 0; s < 64 && !differs; ++s) {
    differs = plan_a.CrashesDelivery(key1, 0, s) != plan_b.CrashesDelivery(key1, 0, s);
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlanTest, StragglerSpeedsAreSeveritiesOrUnit) {
  FaultSpec spec;
  spec.seed = 5;
  spec.straggler_rate = 0.5;
  spec.straggler_severity = 4.0;
  FaultPlan plan(spec);
  uint32_t slow = 0;
  for (uint32_t s = 0; s < 1000; ++s) {
    const double speed = plan.SpeedOf(3, s);
    EXPECT_TRUE(speed == 1.0 || speed == 0.25);
    slow += speed < 1.0 ? 1 : 0;
  }
  EXPECT_GT(slow, 400u);
  EXPECT_LT(slow, 600u);
  // Inert straggler config: unit speed everywhere.
  EXPECT_EQ(FaultPlan().SpeedOf(0, 0), 1.0);
}

// ---- Exchange seam ---------------------------------------------------------

/// Builds a small routed exchange over `p` shards and executes it,
/// returning destination shards + tracker.
struct ExchangeRun {
  std::vector<Relation> shards;
  LoadTracker tracker{1};
  mpc::ExchangeStats stats;
};

ExchangeRun RunSeededExchange(uint32_t p, uint64_t salt, size_t rows,
                              const char* label = "resilience_property") {
  Rng rng(salt);
  Relation data(AttrSet::FirstN(2));
  for (size_t i = 0; i < rows; ++i) {
    const Value row[2] = {rng.Next(), rng.Next()};
    data.AppendRow(std::span<const Value>(row, 2));
  }
  Cluster cluster(p);
  ExchangeRun run;
  run.shards.assign(p, Relation(data.attrs()));
  mpc::ExchangePlan plan = mpc::Exchange::Plan(
      p, data, [p, salt](size_t i, auto emit) { emit(SplitSeed(salt, i) % p); });
  run.stats = mpc::Exchange::Execute(
      &cluster, 0, plan, [&run](size_t, uint32_t s) { return &run.shards[s]; }, label);
  run.tracker = cluster.tracker();
  return run;
}

TEST(ExchangeInterposerTest, InstallReturnsPreviousForNesting) {
  ASSERT_EQ(ExchangeInterposer::Installed(), nullptr);
  FaultInjector outer(FaultSpec{});
  FaultInjector inner(FaultSpec{});
  ExchangeInterposer* prev = ExchangeInterposer::Install(&outer);
  EXPECT_EQ(prev, nullptr);
  EXPECT_EQ(ExchangeInterposer::Installed(), &outer);
  prev = ExchangeInterposer::Install(&inner);
  EXPECT_EQ(prev, &outer);
  ExchangeInterposer::Install(prev);
  EXPECT_EQ(ExchangeInterposer::Installed(), &outer);
  ExchangeInterposer::Install(nullptr);
  EXPECT_EQ(ExchangeInterposer::Installed(), nullptr);
}

TEST(ExchangeInterposerTest, SeesEveryRouteBeforeTheDelivery) {
  // Two sources routed over four destinations that already hold rows and
  // that both sources share; row i goes to server i % 4, and every third
  // row is also replicated to server 0.
  constexpr uint32_t kServers = 4;
  Rng rng(0xAB);
  std::vector<Relation> sources(2, Relation(AttrSet::FirstN(2)));
  for (Relation& source : sources) {
    for (size_t i = 0; i < 300; ++i) {
      const Value row[2] = {rng.Next(), rng.Next()};
      source.AppendRow(std::span<const Value>(row, 2));
    }
  }
  const auto route = [](size_t i, auto emit) {
    emit(i % kServers);
    if (i % 3 == 0) emit(0);
  };
  using RouteKey = std::tuple<size_t, uint32_t, size_t>;  // (source, server, row)
  std::vector<RouteKey> expected_routes;
  for (size_t src = 0; src < sources.size(); ++src) {
    for (size_t i = 0; i < sources[src].size(); ++i) {
      route(i, [&](uint64_t server) {
        expected_routes.emplace_back(src, static_cast<uint32_t>(server), i);
      });
    }
  }
  const auto run_exchange = [&](std::vector<Relation>* dests) {
    dests->assign(kServers, Relation(AttrSet::FirstN(2)));
    for (uint32_t s = 0; s < kServers; ++s) {
      for (uint32_t k = 0; k <= s; ++k) {
        const Value row[2] = {s, k};
        (*dests)[s].AppendRow(std::span<const Value>(row, 2));
      }
    }
    Cluster cluster(kServers);
    mpc::ExchangePlan plan(kServers);
    for (const Relation& source : sources) plan.AddSource(source, /*record=*/true, route);
    return mpc::Exchange::Execute(
        &cluster, 3, plan, [dests](size_t, uint32_t s) { return &(*dests)[s]; }, "observed");
  };

  /// Records what it is shown and what the destinations hold meanwhile.
  class Probe : public ExchangeInterposer {
   public:
    explicit Probe(const std::vector<Relation>* dests) : dests_(dests) {}
    void Observe(const ExchangeDelivery& delivery) override {
      ++calls;
      round = delivery.round();
      label = delivery.label();
      charged = delivery.charged();
      pre_exchange_rows = delivery.PreExchangeRows();
      for (const Relation& dest : *dests_) sizes_seen.push_back(dest.size());
      delivery.ForEachRoute([&](size_t source, uint32_t server, size_t row) {
        routes.emplace_back(source, server, row);
      });
    }
    int calls = 0;
    uint32_t round = 0;
    std::string label;
    bool charged = false;
    uint64_t pre_exchange_rows = 0;
    std::vector<RouteKey> routes;
    std::vector<size_t> sizes_seen;

   private:
    const std::vector<Relation>* dests_;
  };

  std::vector<Relation> observed;
  Probe probe(&observed);
  ExchangeInterposer::Install(&probe);
  const mpc::ExchangeStats observed_stats = run_exchange(&observed);
  ExchangeInterposer::Install(nullptr);
  std::vector<Relation> plain;
  const mpc::ExchangeStats plain_stats = run_exchange(&plain);

  EXPECT_EQ(probe.calls, 1);
  EXPECT_EQ(probe.round, 3u);
  EXPECT_EQ(probe.label, "observed");
  EXPECT_TRUE(probe.charged);
  // Every route, in delivery order.
  EXPECT_EQ(probe.routes, expected_routes);
  // Destinations hold 1 + 2 + 3 + 4 rows, each counted once although both
  // sources deliver into all four.
  EXPECT_EQ(probe.pre_exchange_rows, 10u);
  // When the interposer runs, no row has landed yet.
  EXPECT_EQ(probe.sizes_seen, (std::vector<size_t>{1, 2, 3, 4}));
  // The delivery itself is the one a run without an interposer makes.
  EXPECT_EQ(observed_stats.delivered, plain_stats.delivered);
  EXPECT_EQ(observed_stats.charged, plain_stats.charged);
  for (uint32_t s = 0; s < kServers; ++s) EXPECT_EQ(observed[s].raw(), plain[s].raw());
}

/// One-column relations holding `sizes[i]` rows each.
std::vector<Relation> FilledRelations(const std::vector<size_t>& sizes) {
  std::vector<Relation> relations(sizes.size(), Relation(AttrSet::FirstN(1)));
  for (size_t i = 0; i < sizes.size(); ++i) {
    for (size_t k = 0; k < sizes[i]; ++k) {
      const Value v = i * 1000 + k;
      relations[i].AppendRow(std::span<const Value>(&v, 1));
    }
  }
  return relations;
}

/// Executes `plan` as charged round 0 with an interposer installed and
/// returns the PreExchangeRows() it was shown.
uint64_t PreExchangeRowsSeen(const mpc::ExchangePlan& plan, const mpc::ExchangeSink& sink) {
  class Probe : public ExchangeInterposer {
   public:
    void Observe(const ExchangeDelivery& delivery) override {
      rows = delivery.PreExchangeRows();
    }
    uint64_t rows = ~uint64_t{0};
  };
  Probe probe;
  ExchangeInterposer::Install(&probe);
  Cluster cluster(plan.num_servers());
  mpc::Exchange::Execute(&cluster, 0, plan, sink, "pre_exchange");
  ExchangeInterposer::Install(nullptr);
  return probe.rows;
}

TEST(ExchangeInterposerTest, PreExchangeRowsSumEveryDistinctDestination) {
  // Each source delivers into its own three destinations, holding
  // 1, 2, 3 rows (source 0) and 4, 5, 6 rows (source 1).
  constexpr uint32_t kServers = 3;
  const std::vector<Relation> sources = FilledRelations({6, 6});
  std::vector<Relation> dests = FilledRelations({1, 2, 3, 4, 5, 6});
  mpc::ExchangePlan plan(kServers);
  for (const Relation& source : sources) {
    plan.AddSource(source, /*record=*/true, [](size_t i, auto emit) { emit(i % kServers); });
  }
  const uint64_t seen = PreExchangeRowsSeen(
      plan, [&dests](size_t source, uint32_t s) { return &dests[source * kServers + s]; });
  EXPECT_EQ(seen, 21u);
  // Each destination then received two rows.
  for (size_t d = 0; d < dests.size(); ++d) EXPECT_EQ(dests[d].size(), d + 3);
}

TEST(ExchangeInterposerTest, PreExchangeRowsSkipDestinationsThatReceiveNothing) {
  // Rows go to servers 0 and 2 only, and the charge-only source routed to
  // server 3 records no route: servers 1 and 3 are no destination of this
  // exchange, so their rows are outside the pre-exchange sum.
  constexpr uint32_t kServers = 4;
  const std::vector<Relation> sources = FilledRelations({8, 8});
  std::vector<Relation> dests = FilledRelations({5, 6, 7, 8});
  mpc::ExchangePlan plan(kServers);
  plan.AddSource(sources[0], /*record=*/true, [](size_t i, auto emit) { emit((i % 2) * 2); });
  plan.AddSource(sources[1], /*record=*/false, [](size_t, auto emit) { emit(3); });
  const uint64_t seen =
      PreExchangeRowsSeen(plan, [&dests](size_t, uint32_t s) { return &dests[s]; });
  EXPECT_EQ(seen, 5u + 7u);
  EXPECT_EQ(dests[1].size(), 6u);
  EXPECT_EQ(dests[3].size(), 8u);
}

// ---- FaultInjector ---------------------------------------------------------

TEST(FaultInjectorTest, RecoversBitIdenticalStateUnderCrashesAndCorruption) {
  ExchangeRun clean = RunSeededExchange(8, 0xBEEF, 1500);

  FaultSpec spec;
  spec.seed = 3;
  spec.crash_rate = 0.3;
  spec.drop_rate = 0.01;
  spec.duplicate_rate = 0.01;
  Ledger::Global().Reset();
  ExchangeRun faulted = [&] {
    ScopedFaultInjection injection(spec);
    return RunSeededExchange(8, 0xBEEF, 1500);
  }();

  EXPECT_EQ(faulted.stats.delivered, clean.stats.delivered);
  EXPECT_EQ(faulted.stats.charged, clean.stats.charged);
  for (uint32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(faulted.shards[s].raw(), clean.shards[s].raw());
    EXPECT_EQ(faulted.tracker.At(0, s), clean.tracker.At(0, s));
  }
  const LedgerSnapshot ledger = Ledger::Global().Read();
  EXPECT_EQ(ledger.Counter("fault.exchanges_injected"), 1u);
  EXPECT_EQ(ledger.Counter("recovery.checkpoints_captured"), 1u);
  ASSERT_EQ(ledger.Counter("fault.exchanges_faulted"), 1u);  // crash_rate .3 over 8 servers
  EXPECT_GT(ledger.Counter("recovery.retries"), 0u);
  EXPECT_GT(ledger.Counter("recovery.tuples_resent"), 0u);
  EXPECT_GT(ledger.Counter("recovery.backoff_units"), 0u);
  EXPECT_EQ(ledger.Samples("recovery.attempts_per_exchange").size(), 1u);
  EXPECT_GE(ledger.Samples("recovery.attempts_per_exchange")[0], 2.0);
}

TEST(FaultInjectorTest, PerCrashResendStaysWithinBottleneckReceive) {
  FaultSpec spec;
  spec.seed = 21;
  spec.crash_rate = 0.25;
  Ledger::Global().Reset();
  ExchangeRun faulted;
  {
    ScopedFaultInjection injection(spec);
    faulted = RunSeededExchange(16, 0xD00D, 4000);
  }
  const LedgerSnapshot ledger = Ledger::Global().Read();
  ASSERT_GT(ledger.Counter("fault.crashes"), 0u);
  // Each crash replays one server's round: at most the bottleneck receive.
  EXPECT_LE(ledger.Max("recovery.max_single_resend"), faulted.stats.max_receive);
  EXPECT_LE(ledger.Counter("recovery.tuples_resent_crash"),
            ledger.Counter("fault.crashes") * faulted.stats.max_receive);
}

TEST(FaultInjectorTest, RetryBudgetExhaustionDegradesToFullRerun) {
  FaultSpec spec;
  spec.seed = 8;
  spec.crash_rate = 1.0;  // every attempt crashes every receiving server
  spec.max_attempts = 3;
  Ledger::Global().Reset();
  ExchangeRun clean = RunSeededExchange(4, 0xFEED, 800);
  ExchangeRun faulted;
  {
    ScopedFaultInjection injection(spec);
    faulted = RunSeededExchange(4, 0xFEED, 800);
  }
  // Degraded, but still exact.
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(faulted.shards[s].raw(), clean.shards[s].raw());
  }
  const LedgerSnapshot ledger = Ledger::Global().Read();
  EXPECT_EQ(ledger.Counter("recovery.full_reruns"), 1u);
  EXPECT_EQ(ledger.Counter("recovery.retries"), 3u);
  // 4 attempts total: three faulty ones plus the final clean replay.
  ASSERT_EQ(ledger.Samples("recovery.attempts_per_exchange").size(), 1u);
  EXPECT_EQ(ledger.Samples("recovery.attempts_per_exchange")[0], 4.0);
  // The full rerun re-ships the entire plan on top of the per-crash resends.
  EXPECT_EQ(ledger.Counter("recovery.tuples_resent_full_rerun"), faulted.stats.planned);
  EXPECT_EQ(ledger.Counter("recovery.tuples_resent"),
            ledger.Counter("recovery.tuples_resent_crash") +
                ledger.Counter("recovery.tuples_resent_full_rerun"));
}

TEST(FaultInjectorTest, UnchargedExchangesAreOutsideTheFaultModel) {
  FaultSpec spec;
  spec.seed = 4;
  spec.crash_rate = 1.0;
  Rng rng(1);
  Relation data(AttrSet::FirstN(1));
  for (size_t i = 0; i < 100; ++i) {
    const Value v = rng.Next();
    data.AppendRow(std::span<const Value>(&v, 1));
  }
  std::vector<Relation> shards(4, Relation(data.attrs()));
  mpc::ExchangePlan plan =
      mpc::Exchange::Plan(4, data, [](size_t i, auto emit) { emit(i % 4); });
  Ledger::Global().Reset();
  {
    ScopedFaultInjection injection(spec);
    // Null cluster = initial placement: delivered but never charged, so the
    // injector must pass it through untouched.
    mpc::Exchange::Execute(
        nullptr, 0, plan, [&shards](size_t, uint32_t s) { return &shards[s]; },
        "initial_placement");
  }
  const LedgerSnapshot ledger = Ledger::Global().Read();
  EXPECT_EQ(ledger.Counter("fault.exchanges_injected"), 0u);
  EXPECT_EQ(ledger.Counter("fault.crashes"), 0u);
  uint64_t total = 0;
  for (const Relation& shard : shards) total += shard.size();
  EXPECT_EQ(total, 100u);
}

TEST(FaultInjectorTest, InjectionIsDeterministicAcrossThreadCounts) {
  FaultSpec spec;
  spec.seed = 17;
  spec.crash_rate = 0.3;
  spec.drop_rate = 0.02;
  spec.duplicate_rate = 0.02;
  const unsigned saved = ThreadPool::GlobalThreads();
  Ledger::Global().Reset();
  ThreadPool::SetGlobalThreads(1);
  ExchangeRun serial;
  {
    ScopedFaultInjection injection(spec);
    serial = RunSeededExchange(8, 0xFACE, 6000);
  }
  const LedgerSnapshot serial_ledger = Ledger::Global().Read();
  Ledger::Global().Reset();
  ThreadPool::SetGlobalThreads(4);
  ExchangeRun parallel;
  {
    ScopedFaultInjection injection(spec);
    parallel = RunSeededExchange(8, 0xFACE, 6000);
  }
  const LedgerSnapshot parallel_ledger = Ledger::Global().Read();
  ThreadPool::SetGlobalThreads(saved);
  for (uint32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(serial.shards[s].raw(), parallel.shards[s].raw());
  }
  // The fault schedule itself — not just the healed result — is identical.
  EXPECT_GT(serial_ledger.Counter("fault.crashes"), 0u);
  EXPECT_EQ(serial_ledger, parallel_ledger);
}

TEST(FaultInjectorTest, ShardParallelWalkMatchesPerRowDice) {
  // Three sources of more than two routing shards each, with about a third
  // of the rows replicated, over 200 receivers (four bitmap words, the last
  // one partial). Every attempt is faulty, and some receivers stay clean.
  constexpr uint32_t kServers = 200;
  constexpr size_t kRows = 2 * mpc::kExchangeRouteGrain + 900;
  FaultSpec spec;
  spec.seed = 0x5EED;
  spec.crash_rate = 0.05;
  spec.drop_rate = 0.01;
  spec.duplicate_rate = 0.01;
  spec.max_attempts = 3;
  std::vector<Relation> sources = FilledRelations({kRows, kRows, kRows});
  const auto route_of = [](uint64_t salt) {
    return [salt](size_t i, auto emit) {
      const uint64_t h = SplitSeed(salt, i);
      emit(h % kServers);
      if ((h >> 32) % 3 == 0) emit((h >> 16) % kServers);
    };
  };

  /// Shows each delivery to the injector, then prices it again from the
  /// per-row dice: a serial ForEachRoute walk that decides every route
  /// with the three-argument DropsRow / DuplicatesRow.
  class Reference : public ExchangeInterposer {
   public:
    explicit Reference(const FaultSpec& spec) : injector_(spec) {}
    void Observe(const ExchangeDelivery& delivery) override {
      injector_.Observe(delivery);
      const FaultPlan& faults = injector_.plan();
      const mpc::ExchangePlan& plan = delivery.plan();
      const uint64_t key =
          FaultPlan::ExchangeKey(delivery.round(), delivery.label(), plan.total_planned(),
                                 plan.recorded_planned(), plan.num_servers());
      for (uint32_t attempt = 0; attempt < faults.spec().max_attempts; ++attempt) {
        std::vector<uint8_t> crashed(plan.num_servers(), 0);
        uint64_t attempt_crashes = 0;
        for (uint32_t s = 0; s < plan.num_servers(); ++s) {
          if (plan.PlannedReceive(s) > 0 && faults.CrashesDelivery(key, attempt, s)) {
            crashed[s] = 1;
            ++attempt_crashes;
          }
        }
        std::vector<uint8_t> corrupted = crashed;
        uint64_t drops = 0;
        uint64_t dups = 0;
        delivery.ForEachRoute([&](size_t source, uint32_t server, size_t row) {
          if (crashed[server] != 0) return;
          const FaultPlan::RowPrefix prefix = faults.RowFaultPrefix(key, attempt, server);
          if (faults.DropsRow(prefix, source, row)) {
            ++drops;
            corrupted[server] = 1;
          } else if (faults.DuplicatesRow(prefix, source, row)) {
            ++dups;
            corrupted[server] = 1;
          }
        });
        if (attempt_crashes == 0 && drops == 0 && dups == 0) break;
        crashes += attempt_crashes;
        rows_dropped += drops;
        rows_duplicated += dups;
        for (uint32_t s = 0; s < plan.num_servers(); ++s) {
          if (corrupted[s] == 0) continue;
          (crashed[s] != 0 ? resent_crash : resent_corruption) += plan.PlannedReceive(s);
        }
      }
    }
    uint64_t crashes = 0;
    uint64_t rows_dropped = 0;
    uint64_t rows_duplicated = 0;
    uint64_t resent_crash = 0;
    uint64_t resent_corruption = 0;

   private:
    FaultInjector injector_;
  };

  const unsigned saved = ThreadPool::GlobalThreads();
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    ThreadPool::SetGlobalThreads(threads);
    Ledger::Global().Reset();
    Reference reference(spec);
    ExchangeInterposer::Install(&reference);
    Cluster cluster(kServers);
    std::vector<Relation> dests(kServers, Relation(AttrSet::FirstN(1)));
    mpc::ExchangePlan plan(kServers);
    for (size_t src = 0; src < sources.size(); ++src) {
      plan.AddSource(sources[src], /*record=*/true, route_of(0xD1CE + src), 2);
    }
    const mpc::ExchangeStats stats = mpc::Exchange::Execute(
        &cluster, 1, plan, [&dests](size_t, uint32_t s) { return &dests[s]; }, "dice");
    ExchangeInterposer::Install(nullptr);
    const LedgerSnapshot ledger = Ledger::Global().Read();

    EXPECT_GT(reference.crashes, 0u);
    EXPECT_GT(reference.rows_dropped, 0u);
    EXPECT_GT(reference.rows_duplicated, 0u);
    // Not every receiver is resent on every attempt.
    EXPECT_LT(reference.resent_crash + reference.resent_corruption,
              spec.max_attempts * stats.planned);
    EXPECT_EQ(ledger.Counter("recovery.retries"), spec.max_attempts);
    EXPECT_EQ(ledger.Counter("fault.crashes"), reference.crashes);
    EXPECT_EQ(ledger.Counter("fault.rows_dropped"), reference.rows_dropped);
    EXPECT_EQ(ledger.Counter("fault.rows_duplicated"), reference.rows_duplicated);
    EXPECT_EQ(ledger.Counter("recovery.tuples_resent_crash"), reference.resent_crash);
    EXPECT_EQ(ledger.Counter("recovery.tuples_resent_corruption"), reference.resent_corruption);
  }
  ThreadPool::SetGlobalThreads(saved);
}

TEST(FaultInjectorTest, LedgersOneCheckpointPerChargedExchange) {
  FaultSpec spec;
  spec.seed = 12;
  spec.crash_rate = 0.5;
  Ledger::Global().Reset();
  {
    ScopedFaultInjection injection(spec);
    RunSeededExchange(4, 1, 300);
    RunSeededExchange(4, 2, 300);
  }
  const LedgerSnapshot ledger = Ledger::Global().Read();
  EXPECT_EQ(ledger.Counter("recovery.checkpoints_captured"), 2u);
  EXPECT_EQ(ledger.Counter("recovery.checkpoint_tuples"), 0u);  // fresh destinations
  EXPECT_GE(ledger.Counter("recovery.retries"), 1u);  // crash_rate .5 over two exchanges
}

TEST(FaultInjectorTest, CheckpointTuplesArePreExchangeRowsOfChargedExchanges) {
  FaultSpec spec;
  spec.seed = 12;
  spec.crash_rate = 0.5;
  const std::vector<Relation> source = FilledRelations({40});
  const auto run = [&source](Cluster* cluster, std::vector<Relation>* dests) {
    const uint32_t p = static_cast<uint32_t>(dests->size());
    mpc::ExchangePlan plan =
        mpc::Exchange::Plan(p, source[0], [p](size_t i, auto emit) { emit(i % p); });
    mpc::Exchange::Execute(
        cluster, 0, plan, [dests](size_t, uint32_t s) { return &(*dests)[s]; }, "checkpointed");
  };
  std::vector<Relation> first = FilledRelations({3, 4});
  std::vector<Relation> second = FilledRelations({5, 0, 9});
  std::vector<Relation> placement = FilledRelations({100, 100});
  Ledger::Global().Reset();
  {
    ScopedFaultInjection injection(spec);
    Cluster two(2);
    Cluster three(3);
    run(&two, &first);
    run(&three, &second);
    run(nullptr, &placement);  // uncharged: outside the fault model
  }
  const LedgerSnapshot ledger = Ledger::Global().Read();
  EXPECT_EQ(ledger.Counter("recovery.checkpoints_captured"), 2u);
  EXPECT_EQ(ledger.Counter("recovery.checkpoint_tuples"), 3u + 4u + 5u + 9u);
}

TEST(FaultInjectorTest, BackoffStaysAtTheCapPastTheShiftClamp) {
  // Every attempt crashes, so all 70 attempts are faulty. Attempts 0-5 pay
  // 1, 2, ..., 32 units and attempts 6-69 pay the cap of 64. That includes
  // attempts 63 on, where the shift is clamped at 63: 1 << 63 still exceeds
  // the cap, where a base of 2 would wrap to 0 and charge nothing.
  static_assert(resilience::kBackoffBase == 1 && resilience::kBackoffCap == 64);
  FaultSpec spec;
  spec.seed = 0xB0FF;
  spec.crash_rate = 1.0;
  spec.max_attempts = 70;
  Ledger::Global().Reset();
  {
    ScopedFaultInjection injection(spec);
    RunSeededExchange(4, 0xCAFE, 200);
  }
  const LedgerSnapshot ledger = Ledger::Global().Read();
  EXPECT_EQ(ledger.Counter("recovery.retries"), 70u);
  EXPECT_EQ(ledger.Counter("recovery.full_reruns"), 1u);
  EXPECT_EQ(ledger.Counter("recovery.backoff_units"), 63u + 64u * 64u);
}

// ---- Cost model ------------------------------------------------------------

TEST(CostModelTest, UniformSpeedsCollapseToRoundSummedBottleneckLoad) {
  LoadTracker tracker(3);
  tracker.Add(0, 0, 100);
  tracker.Add(0, 1, 40);
  tracker.Add(1, 2, 60);
  const resilience::MakespanBreakdown breakdown =
      resilience::SimulateMakespan(tracker, FaultPlan());
  EXPECT_DOUBLE_EQ(breakdown.makespan, 160.0);
  EXPECT_DOUBLE_EQ(breakdown.uniform_makespan, 160.0);
  EXPECT_DOUBLE_EQ(breakdown.slowdown, 1.0);
  EXPECT_EQ(breakdown.rounds, 2u);
  EXPECT_EQ(breakdown.straggler_bottlenecks, 0u);
  ASSERT_EQ(breakdown.round_makespans.size(), 2u);
  EXPECT_DOUBLE_EQ(breakdown.round_makespans[0], 100.0);
  EXPECT_DOUBLE_EQ(breakdown.round_makespans[1], 60.0);
}

TEST(CostModelTest, UniversalStragglersScaleMakespanBySeverity) {
  LoadTracker tracker(4);
  tracker.Add(0, 0, 100);
  tracker.Add(1, 3, 50);
  FaultSpec spec;
  spec.seed = 1;
  spec.straggler_rate = 1.0;  // every (round, server) straggles
  spec.straggler_severity = 4.0;
  const resilience::MakespanBreakdown breakdown =
      resilience::SimulateMakespan(tracker, FaultPlan(spec));
  EXPECT_DOUBLE_EQ(breakdown.uniform_makespan, 150.0);
  EXPECT_DOUBLE_EQ(breakdown.makespan, 600.0);
  EXPECT_DOUBLE_EQ(breakdown.slowdown, 4.0);
  EXPECT_EQ(breakdown.straggler_bottlenecks, 2u);
}

TEST(CostModelTest, PartialStragglersBoundTheSlowdown) {
  LoadTracker tracker(8);
  for (uint32_t s = 0; s < 8; ++s) tracker.Add(0, s, 100);
  FaultSpec spec;
  spec.seed = 77;
  spec.straggler_rate = 0.5;
  spec.straggler_severity = 8.0;
  const resilience::MakespanBreakdown breakdown =
      resilience::SimulateMakespan(tracker, FaultPlan(spec));
  EXPECT_GE(breakdown.makespan, breakdown.uniform_makespan);
  EXPECT_LE(breakdown.makespan, 8.0 * breakdown.uniform_makespan);
}

}  // namespace
}  // namespace coverpack
