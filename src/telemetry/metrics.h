/// \file metrics.h
/// \brief MetricsRegistry: counters, gauges, fixed-bucket histograms, and
/// scoped wall-clock timers for experiment instrumentation.
///
/// The registry is the mutable half of a RunReport: an experiment creates
/// one (usually through its RunReport), bumps counters and observes
/// histogram samples while it runs, and the driver serializes the whole
/// registry into BENCH_results.json at the end. Design constraints:
///
///  * deterministic serialization — metrics are stored in sorted maps so
///    the JSON output is byte-stable across runs of the same binary;
///  * pool-synchronized mutation — the simulator's hot loops run on the
///    ThreadPool (DESIGN.md §4), so registry mutations are serialized by
///    an internal mutex. Audit builds (COVERPACK_AUDIT=ON) still reject
///    *unsanctioned* cross-thread mutation: a mutation must come either
///    from the thread that first touched the registry or from inside a
///    pool task (ThreadPool::InPoolTask()) — a foreign thread bypassing
///    the pool aborts the audit;
///  * invariant-audited histograms — bucket upper bounds are strictly
///    increasing (always checked) and, in audit builds, every Observe
///    re-verifies that bucket counts sum to the observation count.
///    Note: the Histogram& returned by GetHistogram is NOT internally
///    synchronized — observe into it from one thread, or from shard-private
///    histograms merged after the parallel region.

#ifndef COVERPACK_TELEMETRY_METRICS_H_
#define COVERPACK_TELEMETRY_METRICS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/json_writer.h"
#include "util/ledger.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace coverpack {
namespace telemetry {

/// A fixed-bucket histogram: `bounds` are strictly increasing inclusive
/// upper bounds, plus an implicit overflow bucket, so counts().size() ==
/// bounds().size() + 1. A sample v lands in the first bucket with
/// v <= bounds[i], or in the overflow bucket.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<uint64_t>& counts() const { return counts_; }
  uint64_t total_count() const { return total_count_; }
  double sum() const { return sum_; }

  /// Verifies the structural invariants (bucket count, strictly increasing
  /// bounds, counts summing to total_count). Always compiled; aborts via
  /// CP_CHECK on violation. Audit builds call this after every Observe.
  void VerifyInvariants(const char* context) const;

  JsonValue ToJson() const;

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;  // bounds_.size() + 1 entries
  uint64_t total_count_ = 0;
  double sum_ = 0.0;
};

/// Aggregated wall-clock samples for one named timer.
struct TimerStat {
  uint64_t count = 0;
  double total_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
};

/// Named counters, gauges, histograms, and timers for one experiment run.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  // Copy/move transfer the data but not the mutex or the audit's mutator
  // claim — the destination starts unclaimed, owned by whichever thread
  // mutates it next.
  MetricsRegistry(const MetricsRegistry& other);
  MetricsRegistry& operator=(const MetricsRegistry& other);
  MetricsRegistry(MetricsRegistry&& other) noexcept;
  MetricsRegistry& operator=(MetricsRegistry&& other) noexcept;

  /// Adds `delta` to counter `name` (creating it at zero). Counters are
  /// monotone by construction: delta is unsigned.
  void AddCounter(const std::string& name, uint64_t delta = 1);
  uint64_t CounterValue(const std::string& name) const;

  void SetGauge(const std::string& name, double value);
  double GaugeValue(const std::string& name) const;

  /// Returns the histogram `name`, creating it with `bounds` on first use.
  /// Later calls must pass identical bounds.
  Histogram& GetHistogram(const std::string& name, const std::vector<double>& bounds);
  const Histogram* FindHistogram(const std::string& name) const;

  /// Records one wall-clock sample for timer `name`.
  void RecordTimeMs(const std::string& name, double elapsed_ms);
  const TimerStat* FindTimer(const std::string& name) const;

  /// Adds a copy of the run ledger (util/ledger.h): counters as counters,
  /// maxima as gauges, series as histograms with their bounds, observed in
  /// record order. A key touched with a zero delta or no sample appears.
  void AddLedger(const LedgerSnapshot& ledger);

  /// Removes every counter, gauge and histogram whose name starts with
  /// `prefix`.
  void EraseWithPrefix(const std::string& prefix);
  /// Removes every timer: wall-clock samples are the only report content
  /// that may differ between two runs of one experiment.
  void EraseTimers();

  bool empty() const {
    MutexLock lock(mutex_);
    return counters_.empty() && gauges_.empty() && histograms_.empty() && timers_.empty();
  }

  JsonValue ToJson() const;

  /// RAII wall-clock timer: records the elapsed time into `registry`
  /// under `name` on destruction.
  class ScopedTimer {
   public:
    ScopedTimer(MetricsRegistry* registry, std::string name);
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;
    ~ScopedTimer();

    /// Milliseconds elapsed so far (without stopping the timer).
    double ElapsedMs() const;

   private:
    MetricsRegistry* registry_;
    std::string name_;
    std::chrono::steady_clock::time_point start_;
  };

 private:
  /// Audit hook, called with mutex_ held: the mutation must come from the
  /// first mutator thread or from a sanctioned pool task; any other thread
  /// aborts. Compiles to a no-op outside COVERPACK_AUDIT builds.
  void NoteMutation() CP_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::map<std::string, uint64_t> counters_ CP_GUARDED_BY(mutex_);
  std::map<std::string, double> gauges_ CP_GUARDED_BY(mutex_);
  std::map<std::string, Histogram> histograms_ CP_GUARDED_BY(mutex_);
  std::map<std::string, TimerStat> timers_ CP_GUARDED_BY(mutex_);
  uint64_t mutator_thread_hash_ CP_GUARDED_BY(mutex_) = 0;  // 0 = no mutation seen yet
};

}  // namespace telemetry
}  // namespace coverpack

#endif  // COVERPACK_TELEMETRY_METRICS_H_
