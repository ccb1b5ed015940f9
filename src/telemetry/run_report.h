/// \file run_report.h
/// \brief RunReport: the structured record one experiment produces.
///
/// Every bench experiment returns exactly one RunReport; the unified
/// driver (bench/coverpack_bench.cc) stamps the wall-clock time and
/// serializes the collection as BENCH_results.json — the repo's
/// perf-trajectory format. A report carries:
///
///  * identity — machine id (stable, filterable), display id (the VERDICT
///    line id the text reports have always used), and the paper claim;
///  * the parameter grid the experiment ran (N, p sweep, seeds, ...);
///  * measured complexity — headline max-load and rounds, plus full
///    per-round load-skew profiles of every simulated run it chose to
///    profile;
///  * fitted-vs-theoretical exponent comparisons with their tolerances;
///  * free-form metrics: a Metrics value (util/ledger.h) the experiment
///    writes from its own thread, with the run ledger merged in after the
///    run. MetricsJson renders it: counters, gauges (maxima included),
///    histograms and timers;
///  * the PASS/DEVIATION verdict and wall-clock duration.
///
/// The JSON schema is documented in EXPERIMENTS.md ("Machine-readable
/// results"); bump kSchemaVersion on breaking changes.

#ifndef COVERPACK_TELEMETRY_RUN_REPORT_H_
#define COVERPACK_TELEMETRY_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/json_writer.h"
#include "telemetry/load_stats.h"
#include "util/ledger.h"

namespace coverpack {
namespace telemetry {

/// Version of the BENCH_results.json record layout.
inline constexpr int kSchemaVersion = 1;

/// One fitted exponent against its theoretical value.
struct ExponentFit {
  std::string label;
  double fitted = 0.0;
  double theory = 0.0;
  double tolerance = 0.0;
  bool match = false;
};

/// Renders `metrics` as four name-sorted sections: "counters"; "gauges",
/// holding the gauges and the maxima (as doubles; a maximum wins a name
/// clash); "histograms", one per series, each sample in the first bucket
/// whose bound is >= it or else in the overflow bucket; and "timers".
/// Every section appears, empty or not.
JsonValue MetricsJson(const Metrics& metrics);

/// The structured outcome of one experiment run.
struct RunReport {
  RunReport() = default;
  RunReport(std::string id_in, std::string display_id_in, std::string claim_in)
      : id(std::move(id_in)),
        display_id(std::move(display_id_in)),
        claim(std::move(claim_in)) {}

  std::string id;          ///< machine id, e.g. "table1_complexity"
  std::string display_id;  ///< VERDICT-line id, e.g. "Table1"
  std::string claim;       ///< the paper claim under test

  JsonValue params = JsonValue::Object();
  std::vector<ExponentFit> exponents;
  std::vector<LoadSkewProfile> load_profiles;
  Metrics metrics;

  /// Headline measured complexity: maxima over the profiled runs. Zero
  /// when the experiment simulates nothing (pure LP/classification).
  uint64_t max_load = 0;
  uint32_t rounds = 0;

  bool ok = false;
  double wall_ms = 0.0;  ///< stamped by the driver

  /// Execution parameters, stamped by the driver (additive schema-v1
  /// fields): the thread count the run used, the serial (--threads=1)
  /// wall-clock when the driver measured one (--compare-serial), and the
  /// resulting serial/parallel speedup (0 = not measured).
  unsigned threads = 1;
  double wall_ms_serial = 0.0;
  double speedup = 0.0;

  /// Adds a profile and folds its load/rounds into the headline maxima.
  void AddLoadProfile(LoadSkewProfile profile);

  /// Parameter-grid sugar: params.Set with less noise at call sites.
  template <typename T>
  void AddParam(const std::string& key, T value) {
    params.Set(key, value);
  }

  /// "SHAPE-REPRODUCED" or "DEVIATION" — the exact VERDICT-line token.
  const char* verdict() const { return ok ? "SHAPE-REPRODUCED" : "DEVIATION"; }

  JsonValue ToJson() const;
};

}  // namespace telemetry
}  // namespace coverpack

#endif  // COVERPACK_TELEMETRY_RUN_REPORT_H_
