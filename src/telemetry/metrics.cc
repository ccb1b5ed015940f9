#include "telemetry/metrics.h"

#include <algorithm>
#include <functional>
#include <thread>

#include "util/audit.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace coverpack {
namespace telemetry {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    CP_CHECK_LT(bounds_[i - 1], bounds_[i])
        << "histogram bucket bounds must be strictly increasing ";
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  size_t bucket = bounds_.size();  // overflow bucket by default
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  counts_[bucket] += 1;
  total_count_ += 1;
  sum_ += value;
  CP_AUDIT_ONLY(VerifyInvariants("Histogram::Observe");)
}

void Histogram::VerifyInvariants(const char* context) const {
  audit::SimulatorAuditor::NoteCheck();
  CP_CHECK_EQ(counts_.size(), bounds_.size() + 1)
      << "histogram bucket/bound mismatch in " << context << " ";
  for (size_t i = 1; i < bounds_.size(); ++i) {
    CP_CHECK_LT(bounds_[i - 1], bounds_[i])
        << "histogram bounds not strictly increasing in " << context << " ";
  }
  uint64_t total = 0;
  for (uint64_t count : counts_) total += count;
  CP_CHECK_EQ(total, total_count_)
      << "histogram bucket counts do not sum to total in " << context << " ";
}

JsonValue Histogram::ToJson() const {
  JsonValue value = JsonValue::Object();
  JsonValue bounds = JsonValue::Array();
  for (double bound : bounds_) bounds.Append(JsonValue::Double(bound));
  JsonValue counts = JsonValue::Array();
  for (uint64_t count : counts_) counts.Append(JsonValue::Uint(count));
  value.Set("bounds", std::move(bounds));
  value.Set("counts", std::move(counts));
  value.Set("total_count", total_count_);
  value.Set("sum", sum_);
  return value;
}

MetricsRegistry::MetricsRegistry(const MetricsRegistry& other) {
  MutexLock lock(other.mutex_);
  counters_ = other.counters_;
  gauges_ = other.gauges_;
  histograms_ = other.histograms_;
  timers_ = other.timers_;
}

MetricsRegistry& MetricsRegistry::operator=(const MetricsRegistry& other) {
  if (this == &other) return *this;
  DualMutexLock lock(mutex_, other.mutex_);
  counters_ = other.counters_;
  gauges_ = other.gauges_;
  histograms_ = other.histograms_;
  timers_ = other.timers_;
  mutator_thread_hash_ = 0;
  return *this;
}

MetricsRegistry::MetricsRegistry(MetricsRegistry&& other) noexcept {
  MutexLock lock(other.mutex_);
  counters_ = std::move(other.counters_);
  gauges_ = std::move(other.gauges_);
  histograms_ = std::move(other.histograms_);
  timers_ = std::move(other.timers_);
}

MetricsRegistry& MetricsRegistry::operator=(MetricsRegistry&& other) noexcept {
  if (this == &other) return *this;
  DualMutexLock lock(mutex_, other.mutex_);
  counters_ = std::move(other.counters_);
  gauges_ = std::move(other.gauges_);
  histograms_ = std::move(other.histograms_);
  timers_ = std::move(other.timers_);
  mutator_thread_hash_ = 0;
  return *this;
}

void MetricsRegistry::NoteMutation() {
#ifdef COVERPACK_AUDIT
  uint64_t self = std::hash<std::thread::id>{}(std::this_thread::get_id());
  if (self == 0) self = 1;  // reserve 0 for "no mutation yet"
  if (mutator_thread_hash_ == 0) mutator_thread_hash_ = self;
  // A pool task mutating the registry is sanctioned parallelism (the mutex
  // serializes it); any other foreign thread is an unsynchronized-usage bug.
  CP_AUDIT(mutator_thread_hash_ == self || ThreadPool::InPoolTask());
#endif
}

void MetricsRegistry::AddCounter(const std::string& name, uint64_t delta) {
  MutexLock lock(mutex_);
  NoteMutation();
  uint64_t& counter = counters_[name];
  CP_AUDIT_ONLY(const uint64_t before = counter;)
  counter += delta;
  // Counters are report-monotone: an update may never move one backwards.
  CP_AUDIT(counter >= before);
}

uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  MutexLock lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  MutexLock lock(mutex_);
  NoteMutation();
  gauges_[name] = value;
}

double MetricsRegistry::GaugeValue(const std::string& name) const {
  MutexLock lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds) {
  MutexLock lock(mutex_);
  NoteMutation();
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(bounds)).first;
  } else {
    CP_CHECK(it->second.bounds() == bounds)
        << "histogram " << name << " re-requested with different bounds ";
  }
  return it->second;
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  MutexLock lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::RecordTimeMs(const std::string& name, double elapsed_ms) {
  MutexLock lock(mutex_);
  NoteMutation();
  auto [it, inserted] = timers_.try_emplace(name);
  TimerStat& stat = it->second;
  if (inserted) {
    stat.min_ms = elapsed_ms;
    stat.max_ms = elapsed_ms;
  } else {
    stat.min_ms = std::min(stat.min_ms, elapsed_ms);
    stat.max_ms = std::max(stat.max_ms, elapsed_ms);
  }
  stat.count += 1;
  stat.total_ms += elapsed_ms;
}

const TimerStat* MetricsRegistry::FindTimer(const std::string& name) const {
  MutexLock lock(mutex_);
  const auto it = timers_.find(name);
  return it == timers_.end() ? nullptr : &it->second;
}

void MetricsRegistry::AddLedger(const LedgerSnapshot& ledger) {
  for (const auto& [name, value] : ledger.counters) AddCounter(name, value);
  for (const auto& [name, value] : ledger.maxima) SetGauge(name, static_cast<double>(value));
  for (const auto& [name, series] : ledger.series) {
    Histogram& histogram = GetHistogram(name, series.bounds);
    for (double sample : series.samples) histogram.Observe(sample);
  }
}

void MetricsRegistry::EraseWithPrefix(const std::string& prefix) {
  MutexLock lock(mutex_);
  NoteMutation();
  std::erase_if(counters_, [&](const auto& entry) { return entry.first.starts_with(prefix); });
  std::erase_if(gauges_, [&](const auto& entry) { return entry.first.starts_with(prefix); });
  std::erase_if(histograms_,
                [&](const auto& entry) { return entry.first.starts_with(prefix); });
}

void MetricsRegistry::EraseTimers() {
  MutexLock lock(mutex_);
  NoteMutation();
  timers_.clear();
}

JsonValue MetricsRegistry::ToJson() const {
  MutexLock lock(mutex_);
  JsonValue value = JsonValue::Object();
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, count] : counters_) counters.Set(name, count);
  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, gauge] : gauges_) gauges.Set(name, gauge);
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, histogram] : histograms_) histograms.Set(name, histogram.ToJson());
  JsonValue timers = JsonValue::Object();
  for (const auto& [name, stat] : timers_) {
    JsonValue entry = JsonValue::Object();
    entry.Set("count", stat.count);
    entry.Set("total_ms", stat.total_ms);
    entry.Set("min_ms", stat.min_ms);
    entry.Set("max_ms", stat.max_ms);
    timers.Set(name, std::move(entry));
  }
  value.Set("counters", std::move(counters));
  value.Set("gauges", std::move(gauges));
  value.Set("histograms", std::move(histograms));
  value.Set("timers", std::move(timers));
  return value;
}

MetricsRegistry::ScopedTimer::ScopedTimer(MetricsRegistry* registry, std::string name)
    : registry_(registry), name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

double MetricsRegistry::ScopedTimer::ElapsedMs() const {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

MetricsRegistry::ScopedTimer::~ScopedTimer() { registry_->RecordTimeMs(name_, ElapsedMs()); }

}  // namespace telemetry
}  // namespace coverpack
