/// \file ledger.h
/// \brief The run ledger: named counters, maxima and sample series that the
/// subsystems record into where the work happens.
///
/// One process-global Ledger holds every namespace a run reports besides
/// the experiment's own metrics:
///
///  * `exchange.*` — Exchange::Execute: volume, fan-in and skew, per label;
///  * `fault.*`, `recovery.*` — FaultInjector::Deliver: recovery cost;
///  * `cluster.*` — the elastic pipeline: runs and migrations;
///  * `memory.*` — ~ArenaScope: logical arena bytes per operator frame.
///
/// A record site applies every update of one event under one lock, and
/// touches every key of its namespace (a zero delta, a series without a
/// sample), so a namespace is reported whole or not at all. The bench
/// harness resets the ledger before each experiment and hands it to the
/// report with MetricsRegistry::AddLedger: counters stay counters, maxima
/// become gauges, series become histograms with the bounds they were
/// recorded with. Everything recorded is content-determined, and series
/// keep record order, so reports are byte-identical at any thread count.

#ifndef COVERPACK_UTIL_LEDGER_H_
#define COVERPACK_UTIL_LEDGER_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace coverpack {

/// A sample series: the histogram bucket bounds it is reported with and
/// its samples in record order.
struct LedgerSeries {
  std::vector<double> bounds;
  std::vector<double> samples;

  bool operator==(const LedgerSeries&) const = default;
};

/// A copy of (a namespace of) the ledger.
struct LedgerSnapshot {
  std::map<std::string, uint64_t, std::less<>> counters;
  std::map<std::string, uint64_t, std::less<>> maxima;
  std::map<std::string, LedgerSeries, std::less<>> series;

  /// Value of a counter or maximum; 0 when it was never touched.
  uint64_t Counter(std::string_view name) const;
  uint64_t Max(std::string_view name) const;
  /// Samples of a series; empty when it was never touched.
  std::vector<double> Samples(std::string_view name) const;

  bool operator==(const LedgerSnapshot&) const = default;
};

class Ledger {
 public:
  /// One update of a recorded event. `name` (and `bounds`) must outlive
  /// the Record call only.
  struct Update {
    enum class Kind : uint8_t { kAdd, kMax, kSample, kSeries };
    Kind kind;
    std::string_view name;
    uint64_t value = 0;  ///< kAdd: delta; kMax: candidate
    double sample = 0.0;
    const std::vector<double>* bounds = nullptr;  ///< kSample, kSeries
  };

  /// Adds `delta` to counter `name`.
  static Update Add(std::string_view name, uint64_t delta) {
    return Update{Update::Kind::kAdd, name, delta};
  }
  /// Raises maximum `name` to at least `value`.
  static Update Max(std::string_view name, uint64_t value) {
    return Update{Update::Kind::kMax, name, value};
  }
  /// Appends `value` to series `name`. Every update of one series passes
  /// the same bounds.
  static Update Sample(std::string_view name, const std::vector<double>& bounds,
                       double value) {
    return Update{Update::Kind::kSample, name, 0, value, &bounds};
  }
  /// Touches series `name` without a sample.
  static Update Series(std::string_view name, const std::vector<double>& bounds) {
    return Update{Update::Kind::kSeries, name, 0, 0.0, &bounds};
  }

  /// The process-global ledger every subsystem records into.
  static Ledger& Global();

  /// Applies the updates of one event, in order, under one lock. Safe to
  /// call from any thread.
  void Record(std::initializer_list<Update> updates);

  /// Drops every key that starts with `prefix`; "" drops everything.
  void Reset(std::string_view prefix = "");

  /// Copies every key that starts with `prefix`; "" copies everything.
  LedgerSnapshot Read(std::string_view prefix = "") const;

 private:
  mutable Mutex mutex_;
  LedgerSnapshot entries_ CP_GUARDED_BY(mutex_);
};

}  // namespace coverpack

#endif  // COVERPACK_UTIL_LEDGER_H_
