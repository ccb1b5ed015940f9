#include "util/ledger.h"

#include <algorithm>
#include <utility>

#include "util/audit.h"
#include "util/logging.h"

namespace coverpack {

namespace {

/// The entry `name` of `map`, default-created on first use: one lookup
/// when it exists.
template <typename Map>
typename Map::mapped_type& Slot(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) it = map.emplace(std::string(name), typename Map::mapped_type{}).first;
  return it->second;
}

template <typename Map>
typename Map::mapped_type Lookup(const Map& map, std::string_view name) {
  const auto it = map.find(name);
  return it == map.end() ? typename Map::mapped_type{} : it->second;
}

template <typename Map>
void ErasePrefixOf(Map& map, std::string_view prefix) {
  auto it = map.lower_bound(prefix);
  while (it != map.end() && it->first.starts_with(prefix)) it = map.erase(it);
}

template <typename Map>
void CopyPrefixOf(const Map& map, std::string_view prefix, Map* copy) {
  for (auto it = map.lower_bound(prefix); it != map.end() && it->first.starts_with(prefix);
       ++it) {
    copy->emplace_hint(copy->end(), *it);
  }
}

}  // namespace

void Metrics::AddCounter(std::string_view name, uint64_t delta) {
  uint64_t& counter = Slot(counters, name);
  CP_AUDIT_ONLY(const uint64_t before = counter;)
  counter += delta;
  // Counters are report-monotone: an update may never move one backwards.
  CP_AUDIT(counter >= before);
}

void Metrics::RaiseMax(std::string_view name, uint64_t value) {
  uint64_t& max = Slot(maxima, name);
  max = std::max(max, value);
}

void Metrics::SetGauge(std::string_view name, double value) { Slot(gauges, name) = value; }

Metrics::Series& Metrics::TouchSeries(std::string_view name,
                                      const std::vector<double>& bounds) {
  const auto it = series.find(name);
  if (it != series.end()) {
    CP_CHECK(it->second.bounds == bounds)
        << "series " << name << " touched with different bounds ";
    return it->second;
  }
  for (size_t i = 1; i < bounds.size(); ++i) {
    CP_CHECK_LT(bounds[i - 1], bounds[i])
        << "series " << name << " bucket bounds must be strictly increasing ";
  }
  return series.emplace(std::string(name), Series{bounds, {}}).first->second;
}

void Metrics::AddSample(std::string_view name, const std::vector<double>& bounds,
                        double value) {
  TouchSeries(name, bounds).samples.push_back(value);
}

void Metrics::RecordTimeMs(std::string_view name, double elapsed_ms) {
  Slot(timers, name).Merge(Timer{1, elapsed_ms, elapsed_ms, elapsed_ms});
}

void Metrics::Timer::Merge(const Timer& other) {
  if (other.count == 0) return;
  min_ms = count == 0 ? other.min_ms : std::min(min_ms, other.min_ms);
  max_ms = count == 0 ? other.max_ms : std::max(max_ms, other.max_ms);
  count += other.count;
  total_ms += other.total_ms;
}

void Metrics::Merge(const Metrics& other) {
  for (const auto& [name, delta] : other.counters) AddCounter(name, delta);
  for (const auto& [name, value] : other.maxima) RaiseMax(name, value);
  for (const auto& [name, value] : other.gauges) SetGauge(name, value);
  for (const auto& [name, from] : other.series) {
    Series& into = TouchSeries(name, from.bounds);
    into.samples.insert(into.samples.end(), from.samples.begin(), from.samples.end());
  }
  for (const auto& [name, from] : other.timers) Slot(timers, name).Merge(from);
}

void Metrics::ErasePrefix(std::string_view prefix) {
  ErasePrefixOf(counters, prefix);
  ErasePrefixOf(maxima, prefix);
  ErasePrefixOf(gauges, prefix);
  ErasePrefixOf(series, prefix);
  ErasePrefixOf(timers, prefix);
}

uint64_t Metrics::CounterValue(std::string_view name) const { return Lookup(counters, name); }

uint64_t Metrics::MaxValue(std::string_view name) const { return Lookup(maxima, name); }

std::vector<double> Metrics::Samples(std::string_view name) const {
  const auto it = series.find(name);
  return it == series.end() ? std::vector<double>{} : it->second.samples;
}

ScopedTimer::ScopedTimer(Metrics* metrics, std::string name)
    : metrics_(metrics), name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

double ScopedTimer::ElapsedMs() const {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

ScopedTimer::~ScopedTimer() { metrics_->RecordTimeMs(name_, ElapsedMs()); }

Ledger& Ledger::Global() {
  static Ledger* const ledger = new Ledger();
  return *ledger;
}

void Ledger::Record(std::initializer_list<Update> updates) {
  MutexLock lock(mutex_);
  for (const Update& update : updates) {
    switch (update.kind) {
      case Update::Kind::kAdd:
        entries_.AddCounter(update.name, update.value);
        break;
      case Update::Kind::kMax:
        entries_.RaiseMax(update.name, update.value);
        break;
      case Update::Kind::kSample:
        entries_.AddSample(update.name, *update.bounds, update.sample);
        break;
      case Update::Kind::kSeries:
        entries_.TouchSeries(update.name, *update.bounds);
        break;
    }
  }
}

void Ledger::Reset(std::string_view prefix) {
  MutexLock lock(mutex_);
  entries_.ErasePrefix(prefix);
}

Metrics Ledger::Read(std::string_view prefix) const {
  MutexLock lock(mutex_);
  Metrics copy;
  CopyPrefixOf(entries_.counters, prefix, &copy.counters);
  CopyPrefixOf(entries_.maxima, prefix, &copy.maxima);
  CopyPrefixOf(entries_.gauges, prefix, &copy.gauges);
  CopyPrefixOf(entries_.series, prefix, &copy.series);
  CopyPrefixOf(entries_.timers, prefix, &copy.timers);
  return copy;
}

}  // namespace coverpack
