/// Metrics coverage: counter/maximum/gauge semantics, series bucket
/// boundaries and bound checks, timers and ScopedTimer, the report
/// rendering (sorted, all four sections, pinned byte for byte), merging
/// (every kind, in order, and ledgers merged in order against one ledger),
/// the run ledger under concurrent records, prefix erasure, and — in audit
/// builds — proof that counter updates and histogram rendering go through
/// the auditor counter.

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/run_report.h"
#include "util/audit.h"
#include "util/ledger.h"

namespace coverpack {
namespace {

using telemetry::MetricsJson;

std::string Compact(const Metrics& metrics) { return MetricsJson(metrics).ToString(0); }

TEST(MetricsTest, CountersAccumulateAndDefaultToZero) {
  Metrics metrics;
  EXPECT_EQ(metrics.CounterValue("absent"), 0u);
  metrics.AddCounter("events");
  metrics.AddCounter("events", 4);
  EXPECT_EQ(metrics.CounterValue("events"), 5u);
}

TEST(MetricsTest, GaugesOverwrite) {
  Metrics metrics;
  metrics.SetGauge("ratio", 2.0);
  metrics.SetGauge("ratio", 0.25);
  EXPECT_EQ(metrics.gauges, (Metrics::NameMap<double>{{"ratio", 0.25}}));
}

TEST(MetricsTest, MaximaOnlyRiseAndDefaultToZero) {
  Metrics metrics;
  EXPECT_EQ(metrics.MaxValue("absent"), 0u);
  metrics.RaiseMax("peak", 0);
  EXPECT_EQ(metrics.maxima.count("peak"), 1u);  // touched at zero, so reported
  metrics.RaiseMax("peak", 5);
  metrics.RaiseMax("peak", 3);
  EXPECT_EQ(metrics.MaxValue("peak"), 5u);
  metrics.RaiseMax("peak", 9);
  EXPECT_EQ(metrics.MaxValue("peak"), 9u);
  // A report renders maxima among the gauges.
  EXPECT_EQ(Compact(metrics),
            R"({"counters":{},"gauges":{"peak":9.0},"histograms":{},"timers":{}})");
}

TEST(MetricsTest, SamplesLandAtInclusiveUpperBoundsWithAnOverflowBucket) {
  Metrics metrics;
  const std::vector<double> bounds{1.0, 2.0, 4.0};
  // Inclusive upper bounds: v lands in the first bucket with v <= bound.
  for (double sample : {0.5, 1.0, 1.5, 4.0, 9.0}) metrics.AddSample("h", bounds, sample);
  EXPECT_EQ(metrics.Samples("h"), (std::vector<double>{0.5, 1.0, 1.5, 4.0, 9.0}));
  EXPECT_EQ(Compact(metrics),
            R"({"counters":{},"gauges":{},"histograms":{"h":{"bounds":[1.0,2.0,4.0],)"
            R"("counts":[2,1,1,1],"total_count":5,"sum":16.0}},"timers":{}})");
}

TEST(MetricsTest, SeriesWithoutSamplesIsValid) {
  Metrics metrics;
  EXPECT_TRUE(metrics.TouchSeries("h", {1.0, 10.0}).samples.empty());
  EXPECT_EQ(Compact(metrics),
            R"({"counters":{},"gauges":{},"histograms":{"h":{"bounds":[1.0,10.0],)"
            R"("counts":[0,0,0],"total_count":0,"sum":0.0}},"timers":{}})");
}

TEST(MetricsTest, TouchSeriesCreatesOnceAndReuses) {
  Metrics metrics;
  const std::vector<double> bounds{1.0, 2.0};
  Metrics::Series& first = metrics.TouchSeries("skew", bounds);
  first.samples.push_back(1.5);
  Metrics::Series& again = metrics.TouchSeries("skew", bounds);
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(again.samples, (std::vector<double>{1.5}));
  EXPECT_EQ(metrics.series.size(), 1u);
  EXPECT_TRUE(metrics.Samples("absent").empty());
  EXPECT_EQ(metrics.series.count("absent"), 0u);
}

TEST(MetricsDeathTest, NonIncreasingBoundsAbort) {
  Metrics metrics;
  EXPECT_DEATH(metrics.TouchSeries("flat", {1.0, 1.0}), "strictly increasing");
  EXPECT_DEATH(metrics.AddSample("falling", {2.0, 1.0}, 0.5), "strictly increasing");
}

TEST(MetricsDeathTest, ChangedBoundsAbort) {
  Metrics metrics;
  metrics.TouchSeries("skew", {1.0, 2.0});
  EXPECT_DEATH(metrics.TouchSeries("skew", {1.0, 3.0}), "different bounds");
  Ledger ledger;
  const std::vector<double> first{1.0, 2.0};
  const std::vector<double> second{1.0, 3.0};
  ledger.Record({Ledger::Series("skew", first)});
  EXPECT_DEATH(ledger.Record({Ledger::Sample("skew", second, 1.0)}), "different bounds");
}

TEST(MetricsDeathTest, MergeRejectsChangedBounds) {
  Metrics into;
  into.TouchSeries("skew", {1.0, 2.0});
  Metrics from;
  from.AddSample("skew", {1.0, 3.0}, 1.5);
  EXPECT_DEATH(into.Merge(from), "different bounds");
}

TEST(MetricsTest, TimersAggregateSamples) {
  Metrics metrics;
  metrics.RecordTimeMs("step", 4.0);
  metrics.RecordTimeMs("step", 2.0);
  metrics.RecordTimeMs("step", 6.0);
  EXPECT_EQ(metrics.timers.at("step"), (Metrics::Timer{3, 12.0, 2.0, 6.0}));
  EXPECT_EQ(metrics.timers.count("absent"), 0u);
}

TEST(MetricsTest, ScopedTimerRecordsOnDestruction) {
  Metrics metrics;
  {
    ScopedTimer timer(&metrics, "scope");
    EXPECT_GE(timer.ElapsedMs(), 0.0);
    EXPECT_EQ(metrics.timers.count("scope"), 0u);  // not yet recorded
  }
  ASSERT_EQ(metrics.timers.count("scope"), 1u);
  EXPECT_EQ(metrics.timers.at("scope").count, 1u);
  EXPECT_GE(metrics.timers.at("scope").total_ms, 0.0);
}

TEST(MetricsTest, JsonIsSortedAndCarriesAllFourSections) {
  EXPECT_EQ(Compact(Metrics()), R"({"counters":{},"gauges":{},"histograms":{},"timers":{}})");
  Metrics metrics;
  metrics.AddCounter("zeta", 1);
  metrics.AddCounter("alpha", 2);
  metrics.SetGauge("g", 1.5);
  metrics.AddSample("h", {1.0}, 0.5);
  metrics.RecordTimeMs("t", 3.0);
  const std::string json = Compact(metrics);
  EXPECT_EQ(json, Compact(metrics));
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
  for (const char* section : {"\"counters\"", "\"gauges\"", "\"histograms\"", "\"timers\""}) {
    EXPECT_NE(json.find(section), std::string::npos) << section;
  }
}

// The rendering of a report's metrics, byte for byte: a counter written by
// both the experiment and the merged ledger, a zero-delta counter, a ledger
// maximum among the gauges, samples in the first bucket, on a bound and in
// the overflow bucket, an empty ledger series, an empty experiment
// histogram, and a timer with two samples.
TEST(MetricsTest, ReportRenderingIsPinned) {
  const std::vector<double> kTupleBounds{1.0, 10.0, 100.0};
  const std::vector<double> kSkewBounds{1.0, 2.0, 4.0};
  Ledger ledger;
  ledger.Record({Ledger::Add("exchange.count", 3), Ledger::Add("fault.zero", 0),
                 Ledger::Max("exchange.max_fanin", 9),
                 Ledger::Sample("exchange.tuples_per_exchange", kTupleBounds, 0.1),
                 Ledger::Series("exchange.fanin_skew", kSkewBounds)});
  ledger.Record({Ledger::Sample("exchange.tuples_per_exchange", kTupleBounds, 10.0),
                 Ledger::Sample("exchange.tuples_per_exchange", kTupleBounds, 250.0)});
  Metrics metrics;
  metrics.AddCounter("exchange.count", 2);
  metrics.SetGauge("exchange.ratio", 0.25);
  metrics.SetGauge("rho_star", 1.5);
  metrics.TouchSeries("planner.x.est_error_ratio", {0.5, 1.0, 2.0});
  metrics.RecordTimeMs("workload/w", 4.0);
  metrics.RecordTimeMs("workload/w", 2.5);
  metrics.Merge(ledger.Read());
  EXPECT_EQ(
      Compact(metrics),
      R"({"counters":{"exchange.count":5,"fault.zero":0},)"
      R"("gauges":{"exchange.max_fanin":9.0,"exchange.ratio":0.25,"rho_star":1.5},)"
      R"("histograms":{"exchange.fanin_skew":{"bounds":[1.0,2.0,4.0],"counts":[0,0,0,0],)"
      R"("total_count":0,"sum":0.0},"exchange.tuples_per_exchange":{"bounds":[1.0,10.0,100.0],)"
      R"("counts":[1,1,0,1],"total_count":3,"sum":260.1},"planner.x.est_error_ratio":)"
      R"({"bounds":[0.5,1.0,2.0],"counts":[0,0,0,0],"total_count":0,"sum":0.0}},)"
      R"("timers":{"workload/w":{"count":2,"total_ms":6.5,"min_ms":2.5,"max_ms":4.0}}})");
}

const std::vector<double> kBounds = {1.0, 10.0};

TEST(LedgerTest, RecordsCountersMaximaAndSeriesInRecordOrder) {
  Ledger ledger;
  ledger.Record({Ledger::Add("a.count", 2), Ledger::Max("a.max", 7),
                 Ledger::Sample("a.sizes", kBounds, 5.0)});
  ledger.Record({Ledger::Add("a.count", 0), Ledger::Max("a.max", 3),
                 Ledger::Sample("a.sizes", kBounds, 0.5), Ledger::Series("a.empty", kBounds)});
  const Metrics snapshot = ledger.Read();
  EXPECT_EQ(snapshot.CounterValue("a.count"), 2u);
  EXPECT_EQ(snapshot.MaxValue("a.max"), 7u);
  EXPECT_EQ(snapshot.Samples("a.sizes"), (std::vector<double>{5.0, 0.5}));
  EXPECT_EQ(snapshot.series.at("a.sizes").bounds, kBounds);
  EXPECT_TRUE(snapshot.Samples("a.empty").empty());
  EXPECT_EQ(snapshot.series.count("a.empty"), 1u);
  EXPECT_EQ(snapshot.CounterValue("a.never"), 0u);
}

TEST(LedgerTest, ResetPrefixDropsOnlyThatNamespace) {
  Ledger ledger;
  ledger.Record({Ledger::Add("fault.crashes", 1), Ledger::Max("fault.max", 4),
                 Ledger::Series("fault.series", kBounds), Ledger::Add("faulty.count", 1),
                 Ledger::Add("memory.scopes", 3),
                 Ledger::Sample("memory.bytes", kBounds, 2.0)});
  const Metrics memory = ledger.Read("memory.");
  EXPECT_EQ(memory.counters.size(), 1u);
  EXPECT_EQ(memory.series.size(), 1u);

  ledger.Reset("fault.");
  const Metrics rest = ledger.Read();
  EXPECT_EQ(rest.CounterValue("fault.crashes"), 0u);
  EXPECT_TRUE(rest.maxima.empty());
  // "faulty." shares the spelling but not the namespace.
  EXPECT_EQ(rest.CounterValue("faulty.count"), 1u);
  EXPECT_EQ(ledger.Read("memory."), memory);

  ledger.Reset();
  EXPECT_EQ(ledger.Read(), Metrics());
}

TEST(LedgerTest, ConcurrentRecordsLoseNoUpdate) {
  // Record applies an event's updates under one lock, so every event from
  // every thread lands: counters sum, the maximum is the largest candidate
  // and the series holds every sample, in some interleaving.
  constexpr uint64_t kThreads = 4;
  constexpr uint64_t kEvents = 500;
  Ledger ledger;
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ledger, t] {
      for (uint64_t i = 0; i < kEvents; ++i) {
        const uint64_t id = t * kEvents + i;
        ledger.Record({Ledger::Add("c.events", 1), Ledger::Add("c.ids", id),
                       Ledger::Max("c.max", id),
                       Ledger::Sample("c.sizes", kBounds, static_cast<double>(id))});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const uint64_t n = kThreads * kEvents;
  const Metrics snapshot = ledger.Read();
  EXPECT_EQ(snapshot.CounterValue("c.events"), n);
  EXPECT_EQ(snapshot.CounterValue("c.ids"), n * (n - 1) / 2);
  EXPECT_EQ(snapshot.MaxValue("c.max"), n - 1);
  std::vector<double> samples = snapshot.Samples("c.sizes");
  std::sort(samples.begin(), samples.end());
  std::vector<double> ids(n);
  for (uint64_t id = 0; id < n; ++id) ids[id] = static_cast<double>(id);
  EXPECT_EQ(samples, ids);
}

TEST(MetricsTest, MergeMapsLedgerCountersMaximaAndSeries) {
  Ledger ledger;
  ledger.Record({Ledger::Add("x.zero", 0), Ledger::Add("x.count", 3), Ledger::Max("x.max", 9),
                 Ledger::Sample("x.sizes", kBounds, 4.0),
                 Ledger::Sample("x.sizes", kBounds, 20.0), Ledger::Series("x.empty", kBounds)});
  Metrics metrics;
  metrics.AddCounter("x.count", 1);
  metrics.Merge(ledger.Read());
  EXPECT_EQ(metrics.CounterValue("x.count"), 4u);
  EXPECT_EQ(metrics.MaxValue("x.max"), 9u);
  EXPECT_EQ(metrics.series.at("x.sizes"), (Metrics::Series{kBounds, {4.0, 20.0}}));
  EXPECT_TRUE(metrics.Samples("x.empty").empty());
  // Counters render as counters, maxima as gauges and series as histograms;
  // a key touched with a zero delta or no sample is reported, not skipped.
  const std::string json = Compact(metrics);
  EXPECT_NE(json.find("\"counters\":{\"x.count\":4,\"x.zero\":0}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{\"x.max\":9.0}"), std::string::npos);
  EXPECT_NE(json.find("\"x.sizes\":{\"bounds\":[1.0,10.0],\"counts\":[0,1,1]"),
            std::string::npos);
  EXPECT_NE(json.find("\"x.empty\":{\"bounds\":[1.0,10.0],\"counts\":[0,0,0]"),
            std::string::npos);
  EXPECT_EQ(metrics.series.count("x.never"), 0u);
}

TEST(MetricsTest, MergeAppliesEveryKindThroughItsWriter) {
  Metrics into;
  into.AddCounter("c", 2);
  into.RaiseMax("m", 7);
  into.SetGauge("g", 1.0);
  into.AddSample("s", kBounds, 3.0);
  into.RecordTimeMs("t", 4.0);
  Metrics from;
  from.AddCounter("c", 3);
  from.AddCounter("only_from", 0);
  from.RaiseMax("m", 5);
  from.SetGauge("g", 0.5);
  from.AddSample("s", kBounds, 20.0);
  from.AddSample("s", kBounds, 0.5);
  from.RecordTimeMs("t", 1.0);
  from.RecordTimeMs("t", 9.0);
  const Metrics before = into;
  into.Merge(Metrics());
  EXPECT_EQ(into, before);
  into.Merge(from);
  EXPECT_EQ(into.CounterValue("c"), 5u);
  EXPECT_EQ(into.counters.count("only_from"), 1u);
  EXPECT_EQ(into.MaxValue("m"), 7u);
  EXPECT_DOUBLE_EQ(into.gauges.at("g"), 0.5);
  EXPECT_EQ(into.Samples("s"), (std::vector<double>{3.0, 20.0, 0.5}));
  EXPECT_EQ(into.timers.at("t"), (Metrics::Timer{3, 14.0, 1.0, 9.0}));
}

TEST(MetricsTest, LedgersMergedInOrderEqualOneLedger) {
  // Events split over two ledgers and merged in record order report what
  // one ledger recording every event reports, series order included.
  const auto record = [](Ledger* ledger, uint64_t i) {
    ledger->Record({Ledger::Add("q.count", i), Ledger::Max("q.max", i * 7 % 5),
                    Ledger::Sample("q.sizes", kBounds, 1.5 * static_cast<double>(i)),
                    Ledger::Series("q.empty", kBounds)});
  };
  Ledger whole;
  Ledger first;
  Ledger second;
  for (uint64_t i = 0; i < 8; ++i) {
    record(&whole, i);
    record(i < 3 ? &first : &second, i);
  }
  Metrics merged;
  merged.Merge(first.Read());
  merged.Merge(second.Read());
  EXPECT_EQ(merged, whole.Read());
  EXPECT_EQ(Compact(merged), Compact(whole.Read()));
}

TEST(MetricsTest, ErasePrefixDropsANamespaceAndTimersCanBeErased) {
  Metrics metrics;
  metrics.AddCounter("fault.crashes", 2);
  metrics.RaiseMax("fault.max", 3);
  metrics.SetGauge("fault.ratio", 1.0);
  metrics.AddSample("fault.sizes", kBounds, 1.0);
  metrics.AddCounter("faulty.count", 1);
  metrics.RecordTimeMs("other.wall", 3.0);
  metrics.ErasePrefix("fault.");
  EXPECT_EQ(metrics.CounterValue("fault.crashes"), 0u);
  EXPECT_EQ(metrics.series.count("fault.sizes"), 0u);
  EXPECT_EQ(metrics.CounterValue("faulty.count"), 1u);
  EXPECT_EQ(metrics.timers.count("other.wall"), 1u);
  metrics.timers.clear();
  EXPECT_EQ(Compact(metrics),
            R"({"counters":{"faulty.count":1},"gauges":{},"histograms":{},"timers":{}})");
}

TEST(MetricsAuditTest, CountersAndHistogramRenderingFireAuditorChecksWhenCompiledIn) {
  if (!audit::SimulatorAuditor::kCompiledIn) {
    GTEST_SKIP() << "COVERPACK_AUDIT is off in this build";
  }
  audit::SimulatorAuditor::ResetStats();
  Metrics metrics;
  metrics.AddCounter("audited_counter");
  const uint64_t after_counter = audit::SimulatorAuditor::checks_performed();
  EXPECT_GT(after_counter, 0u);
  metrics.AddSample("audited", {1.0, 2.0}, 1.5);
  // Rendering audits that the bucket counts sum to the sample count.
  MetricsJson(metrics);
  EXPECT_GT(audit::SimulatorAuditor::checks_performed(), after_counter);
}

}  // namespace
}  // namespace coverpack
