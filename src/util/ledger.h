/// \file ledger.h
/// \brief Metrics, the one value type behind the run ledger and every
/// report's metrics, and the run ledger: a lock around a Metrics that the
/// subsystems record into where the work happens.
///
/// A Metrics holds five kinds of named entry, each with one writer:
/// counters (add), maxima (raise), gauges (set), sample series (bounds plus
/// samples in record order) and wall-clock timers (count, total, min, max).
/// An experiment writes its RunReport's Metrics directly, from its own
/// thread, so a report's metrics are a plain value without a lock.
///
/// One process-global Ledger holds every namespace a run reports besides
/// the experiment's own metrics:
///
///  * `exchange.*` — Exchange::Execute: volume, fan-in and skew, per label;
///  * `fault.*`, `recovery.*` — FaultInjector::Observe: recovery cost;
///  * `cluster.*` — the elastic pipeline: runs and migrations;
///  * `memory.*` — ~ArenaScope: logical arena bytes per operator frame.
///
/// A record site applies every update of one event under one lock, and
/// touches every key of its namespace (a zero delta, a series without a
/// sample), so a namespace is reported whole or not at all. The bench
/// harness resets the ledger before each experiment and merges it into the
/// report afterwards; the report renders maxima as gauges and series as
/// histograms with the bounds they were recorded with. Everything recorded
/// is content-determined. A series keeps record order, so it, and the
/// report built from it, is the same at any thread count only where one
/// task records at a time. QueryService::Run executes a batch's pipelines
/// under ParallelFor, so their exchanges' samples interleave by schedule; a
/// report keeps a series' bucket counts and its float sum, and that sum can
/// in principle differ with the order (ROADMAP item 1).

#ifndef COVERPACK_UTIL_LEDGER_H_
#define COVERPACK_UTIL_LEDGER_H_

#include <chrono>
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

/// Named counters, maxima, gauges, sample series and timers. Maps are
/// name-sorted, so whatever renders them is byte-stable.
struct Metrics {
  /// A sample series: the strictly increasing histogram bucket bounds it
  /// is reported with and its samples in record order.
  struct Series {
    std::vector<double> bounds;
    std::vector<double> samples;

    bool operator==(const Series&) const = default;
  };

  /// Aggregated wall-clock samples of one timer.
  struct Timer {
    uint64_t count = 0;
    double total_ms = 0.0;
    double min_ms = 0.0;
    double max_ms = 0.0;

    /// Folds `other` in; the first nonempty fold sets both min and max.
    void Merge(const Timer& other);

    bool operator==(const Timer&) const = default;
  };

  template <typename T>
  using NameMap = std::map<std::string, T, std::less<>>;

  NameMap<uint64_t> counters;
  NameMap<uint64_t> maxima;
  NameMap<double> gauges;
  NameMap<Series> series;
  NameMap<Timer> timers;

  /// Adds `delta` to counter `name`, creating it at zero.
  void AddCounter(std::string_view name, uint64_t delta = 1);
  /// Raises maximum `name` to at least `value`.
  void RaiseMax(std::string_view name, uint64_t value);
  /// Sets gauge `name` to `value`.
  void SetGauge(std::string_view name, double value);
  /// Returns series `name`, creating it without samples. The first touch
  /// fixes its bounds, which must be strictly increasing; every later
  /// touch must pass the same bounds.
  Series& TouchSeries(std::string_view name, const std::vector<double>& bounds);
  /// Appends `value` to series `name` (see TouchSeries for the bounds).
  void AddSample(std::string_view name, const std::vector<double>& bounds, double value);
  /// Adds one sample to timer `name`.
  void RecordTimeMs(std::string_view name, double elapsed_ms);

  /// Applies every entry of `other` through the writers above: counters
  /// add, maxima raise, gauges overwrite, series append their samples and
  /// timers aggregate.
  void Merge(const Metrics& other);

  /// Drops every entry of every kind whose name starts with `prefix`; ""
  /// drops everything.
  void ErasePrefix(std::string_view prefix);

  /// Value of a counter or maximum; 0 when it was never touched.
  uint64_t CounterValue(std::string_view name) const;
  uint64_t MaxValue(std::string_view name) const;
  /// Samples of a series; empty when it was never touched.
  std::vector<double> Samples(std::string_view name) const;

  bool operator==(const Metrics&) const = default;
};

/// RAII wall-clock timer: records the elapsed time into `metrics` under
/// `name` on destruction.
class ScopedTimer {
 public:
  ScopedTimer(Metrics* metrics, std::string name);
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer();

  /// Milliseconds elapsed so far (without stopping the timer).
  double ElapsedMs() const;

 private:
  Metrics* metrics_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
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
  Metrics Read(std::string_view prefix = "") const;

 private:
  mutable Mutex mutex_;
  Metrics entries_ CP_GUARDED_BY(mutex_);
};

}  // namespace coverpack

#endif  // COVERPACK_UTIL_LEDGER_H_
