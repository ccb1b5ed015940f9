/// \file perf_harness.h
/// \brief Measurement plumbing of the coverpack_perf benchmark: the in-memory
/// span tracer, sample statistics, result digests, and the pinned-fingerprint
/// table (expected.json).
///
/// Everything here runs on the benchmark's own thread, around calls into the
/// library's public API; nothing under src/ is instrumented.

#ifndef COVERPACK_BENCH_PERF_PERF_HARNESS_H_
#define COVERPACK_BENCH_PERF_PERF_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "relation/relation.h"
#include "telemetry/json_writer.h"

namespace coverpack {
namespace perf {

using Clock = std::chrono::steady_clock;

/// Milliseconds from `start` to `end`.
double MsBetween(Clock::time_point start, Clock::time_point end);

/// Records spans (name, op id, parent, start, end) in memory while enabled;
/// every call is a no-op when disabled, so the untraced run pays one branch
/// per span site. Single-threaded: spans are opened only by the benchmark
/// thread, around calls into the library.
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t op = 0;
    int64_t parent = -1;  ///< index into spans(), -1 for a root span
    double start_ms = 0.0;
    double end_ms = 0.0;
  };

  /// RAII span: opened by Tracer::Open, closed on destruction.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    friend class Tracer;
    explicit Scope(Tracer* tracer) : tracer_(tracer) {}
    Tracer* tracer_;  ///< null when tracing is off
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span whose parent is the innermost open span.
  Scope Open(const std::string& name, uint64_t op);

  const std::vector<Span>& spans() const { return spans_; }

  /// Median over op ids of each span name's summed self time: its duration
  /// minus the part covered by its child spans.
  std::map<std::string, double> MedianSelfMs() const;

  /// {"spans": [{name, op, parent, start_ms, end_ms}, ...]}.
  telemetry::JsonValue ToJson() const;

 private:
  void Close();

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  ///< stack of open span indices
};

/// Median of `values` (mean of the middle two for an even count); 0 if empty.
double Median(std::vector<double> values);

/// Percentile q in [0, 1] with linear interpolation between closest ranks;
/// 0 if empty.
double Percentile(std::vector<double> values, double q);

/// The digest's hash of one attribute value: odd, so products of factors
/// never vanish modulo 2^64.
uint64_t ValueFactor(AttrId attr, Value value);

/// Order-independent result digest: the wrapping sum over rows of the
/// product of the row's value factors. A sum of products, so it can also be
/// computed without materializing a join (see the oracle in workloads.cc).
uint64_t RowDigest(const Relation& relation);

/// 16 hex digits.
std::string Hex(uint64_t value);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Pinned per-op load fingerprints for one seed: workload -> op -> value.
struct PinTable {
  uint64_t seed = 0;
  std::map<std::string, std::map<std::string, std::string>> workloads;

  /// Reads a file written by Write; nullopt when missing or malformed.
  static std::optional<PinTable> Read(const std::string& path);
  bool Write(const std::string& path) const;
};

}  // namespace perf
}  // namespace coverpack

#endif  // COVERPACK_BENCH_PERF_PERF_HARNESS_H_
