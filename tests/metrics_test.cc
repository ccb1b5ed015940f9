/// MetricsRegistry coverage: counter/gauge semantics, histogram bucket
/// boundaries and structural invariants, scoped timers, deterministic JSON
/// serialization, the run ledger and its bridge into a registry, and — in
/// audit builds — proof that Observe re-verifies the histogram invariants
/// through the auditor counter.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/metrics.h"
#include "util/audit.h"
#include "util/ledger.h"

namespace coverpack {
namespace telemetry {
namespace {

TEST(HistogramTest, ObservePlacesSamplesAtInclusiveUpperBounds) {
  Histogram histogram({1.0, 2.0, 4.0});
  // Inclusive upper bounds: v lands in the first bucket with v <= bound.
  histogram.Observe(0.5);  // bucket 0 (<= 1)
  histogram.Observe(1.0);  // bucket 0 (inclusive)
  histogram.Observe(1.5);  // bucket 1
  histogram.Observe(4.0);  // bucket 2 (inclusive)
  histogram.Observe(9.0);  // overflow bucket
  ASSERT_EQ(histogram.counts().size(), 4u);
  EXPECT_EQ(histogram.counts()[0], 2u);
  EXPECT_EQ(histogram.counts()[1], 1u);
  EXPECT_EQ(histogram.counts()[2], 1u);
  EXPECT_EQ(histogram.counts()[3], 1u);
  EXPECT_EQ(histogram.total_count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 16.0);
  histogram.VerifyInvariants("metrics_test");
}

TEST(HistogramTest, EmptyHistogramIsStructurallyValid) {
  Histogram histogram({1.0, 10.0});
  EXPECT_EQ(histogram.total_count(), 0u);
  histogram.VerifyInvariants("metrics_test");
}

TEST(HistogramDeathTest, NonIncreasingBoundsAbort) {
  EXPECT_DEATH(Histogram({1.0, 1.0}), "");
  EXPECT_DEATH(Histogram({2.0, 1.0}), "");
}

TEST(MetricsRegistryTest, CountersAccumulateAndDefaultToZero) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.CounterValue("absent"), 0u);
  registry.AddCounter("events");
  registry.AddCounter("events", 4);
  EXPECT_EQ(registry.CounterValue("events"), 5u);
}

TEST(MetricsRegistryTest, GaugesOverwrite) {
  MetricsRegistry registry;
  EXPECT_DOUBLE_EQ(registry.GaugeValue("absent"), 0.0);
  registry.SetGauge("ratio", 2.0);
  registry.SetGauge("ratio", 0.25);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("ratio"), 0.25);
}

TEST(MetricsRegistryTest, GetHistogramCreatesOnceAndReuses) {
  MetricsRegistry registry;
  const std::vector<double> bounds{1.0, 2.0};
  Histogram& first = registry.GetHistogram("skew", bounds);
  first.Observe(1.5);
  Histogram& again = registry.GetHistogram("skew", bounds);
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(again.total_count(), 1u);
  ASSERT_NE(registry.FindHistogram("skew"), nullptr);
  EXPECT_EQ(registry.FindHistogram("absent"), nullptr);
}

TEST(MetricsRegistryDeathTest, GetHistogramRejectsChangedBounds) {
  MetricsRegistry registry;
  registry.GetHistogram("skew", {1.0, 2.0});
  EXPECT_DEATH(registry.GetHistogram("skew", {1.0, 3.0}), "");
}

TEST(MetricsRegistryTest, TimersAggregateSamples) {
  MetricsRegistry registry;
  registry.RecordTimeMs("step", 4.0);
  registry.RecordTimeMs("step", 2.0);
  registry.RecordTimeMs("step", 6.0);
  const TimerStat* stat = registry.FindTimer("step");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->count, 3u);
  EXPECT_DOUBLE_EQ(stat->total_ms, 12.0);
  EXPECT_DOUBLE_EQ(stat->min_ms, 2.0);
  EXPECT_DOUBLE_EQ(stat->max_ms, 6.0);
  EXPECT_EQ(registry.FindTimer("absent"), nullptr);
}

TEST(MetricsRegistryTest, ScopedTimerRecordsOnDestruction) {
  MetricsRegistry registry;
  {
    MetricsRegistry::ScopedTimer timer(&registry, "scope");
    EXPECT_GE(timer.ElapsedMs(), 0.0);
    EXPECT_EQ(registry.FindTimer("scope"), nullptr);  // not yet recorded
  }
  const TimerStat* stat = registry.FindTimer("scope");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->count, 1u);
  EXPECT_GE(stat->total_ms, 0.0);
}

TEST(MetricsRegistryTest, EmptyReflectsContents) {
  MetricsRegistry registry;
  EXPECT_TRUE(registry.empty());
  registry.AddCounter("one");
  EXPECT_FALSE(registry.empty());
}

TEST(MetricsRegistryTest, ToJsonIsDeterministicAndSorted) {
  MetricsRegistry registry;
  registry.AddCounter("zeta", 1);
  registry.AddCounter("alpha", 2);
  registry.SetGauge("g", 1.5);
  registry.GetHistogram("h", {1.0}).Observe(0.5);
  registry.RecordTimeMs("t", 3.0);
  std::string first = registry.ToJson().ToString(0);
  std::string second = registry.ToJson().ToString(0);
  EXPECT_EQ(first, second);
  // map storage => counters serialize in sorted key order.
  EXPECT_LT(first.find("\"alpha\""), first.find("\"zeta\""));
  EXPECT_NE(first.find("\"counters\""), std::string::npos);
  EXPECT_NE(first.find("\"gauges\""), std::string::npos);
  EXPECT_NE(first.find("\"histograms\""), std::string::npos);
  EXPECT_NE(first.find("\"timers\""), std::string::npos);
}

const std::vector<double> kBounds = {1.0, 10.0};

TEST(LedgerTest, RecordsCountersMaximaAndSeriesInRecordOrder) {
  Ledger ledger;
  ledger.Record({Ledger::Add("a.count", 2), Ledger::Max("a.max", 7),
                 Ledger::Sample("a.sizes", kBounds, 5.0)});
  ledger.Record({Ledger::Add("a.count", 0), Ledger::Max("a.max", 3),
                 Ledger::Sample("a.sizes", kBounds, 0.5), Ledger::Series("a.empty", kBounds)});
  const LedgerSnapshot snapshot = ledger.Read();
  EXPECT_EQ(snapshot.Counter("a.count"), 2u);
  EXPECT_EQ(snapshot.Max("a.max"), 7u);
  EXPECT_EQ(snapshot.Samples("a.sizes"), (std::vector<double>{5.0, 0.5}));
  EXPECT_EQ(snapshot.series.at("a.sizes").bounds, kBounds);
  EXPECT_TRUE(snapshot.Samples("a.empty").empty());
  EXPECT_EQ(snapshot.series.count("a.empty"), 1u);
  EXPECT_EQ(snapshot.Counter("a.never"), 0u);
}

TEST(LedgerTest, ResetPrefixDropsOnlyThatNamespace) {
  Ledger ledger;
  ledger.Record({Ledger::Add("fault.crashes", 1), Ledger::Max("fault.max", 4),
                 Ledger::Series("fault.series", kBounds), Ledger::Add("faulty.count", 1),
                 Ledger::Add("memory.scopes", 3),
                 Ledger::Sample("memory.bytes", kBounds, 2.0)});
  const LedgerSnapshot memory = ledger.Read("memory.");
  EXPECT_EQ(memory.counters.size(), 1u);
  EXPECT_EQ(memory.series.size(), 1u);

  ledger.Reset("fault.");
  const LedgerSnapshot rest = ledger.Read();
  EXPECT_EQ(rest.Counter("fault.crashes"), 0u);
  EXPECT_TRUE(rest.maxima.empty());
  // "faulty." shares the spelling but not the namespace.
  EXPECT_EQ(rest.Counter("faulty.count"), 1u);
  EXPECT_EQ(ledger.Read("memory."), memory);

  ledger.Reset();
  EXPECT_EQ(ledger.Read(), LedgerSnapshot());
}

TEST(MetricsRegistryTest, AddLedgerMapsCountersGaugesAndHistograms) {
  Ledger ledger;
  ledger.Record({Ledger::Add("x.zero", 0), Ledger::Add("x.count", 3), Ledger::Max("x.max", 9),
                 Ledger::Sample("x.sizes", kBounds, 4.0),
                 Ledger::Sample("x.sizes", kBounds, 20.0), Ledger::Series("x.empty", kBounds)});
  MetricsRegistry registry;
  registry.AddCounter("x.count", 1);
  registry.AddLedger(ledger.Read());
  EXPECT_EQ(registry.CounterValue("x.count"), 4u);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("x.max"), 9.0);
  const Histogram* sizes = registry.FindHistogram("x.sizes");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->bounds(), kBounds);
  EXPECT_EQ(sizes->counts(), (std::vector<uint64_t>{0, 1, 1}));
  EXPECT_DOUBLE_EQ(sizes->sum(), 24.0);
  const Histogram* empty = registry.FindHistogram("x.empty");
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->total_count(), 0u);
  // A key touched with a zero delta is reported, not skipped.
  const std::string json = registry.ToJson().ToString(0);
  EXPECT_NE(json.find("\"x.zero\":0"), std::string::npos);
  EXPECT_EQ(registry.FindHistogram("x.never"), nullptr);
}

TEST(MetricsRegistryTest, EraseDropsANamespaceAndTheTimers) {
  MetricsRegistry registry;
  registry.AddCounter("fault.crashes", 2);
  registry.SetGauge("fault.max", 1.0);
  registry.GetHistogram("fault.sizes", kBounds).Observe(1.0);
  registry.AddCounter("faulty.count", 1);
  registry.RecordTimeMs("fault.wall", 3.0);
  registry.EraseWithPrefix("fault.");
  EXPECT_EQ(registry.CounterValue("fault.crashes"), 0u);
  EXPECT_EQ(registry.FindHistogram("fault.sizes"), nullptr);
  EXPECT_EQ(registry.CounterValue("faulty.count"), 1u);
  EXPECT_NE(registry.FindTimer("fault.wall"), nullptr);
  registry.EraseTimers();
  EXPECT_EQ(registry.FindTimer("fault.wall"), nullptr);
  EXPECT_EQ(registry.ToJson().ToString(0),
            R"({"counters":{"faulty.count":1},"gauges":{},"histograms":{},"timers":{}})");
}

TEST(MetricsRegistryAuditTest, ObserveFiresAuditorChecksWhenCompiledIn) {
  if (!audit::SimulatorAuditor::kCompiledIn) {
    GTEST_SKIP() << "COVERPACK_AUDIT is off in this build";
  }
  audit::SimulatorAuditor::ResetStats();
  MetricsRegistry registry;
  registry.GetHistogram("audited", {1.0, 2.0}).Observe(1.5);
  registry.AddCounter("audited_counter");
  // Observe re-verifies histogram invariants and AddCounter audits
  // monotonicity; both go through the global auditor counter.
  EXPECT_GT(audit::SimulatorAuditor::checks_performed(), 0u);
}

}  // namespace
}  // namespace telemetry
}  // namespace coverpack
