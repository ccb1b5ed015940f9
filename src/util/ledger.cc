#include "util/ledger.h"

#include <algorithm>

#include "util/logging.h"

namespace coverpack {

namespace {

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
void ErasePrefix(Map& map, std::string_view prefix) {
  auto it = map.lower_bound(prefix);
  while (it != map.end() && it->first.starts_with(prefix)) it = map.erase(it);
}

template <typename Map>
Map CopyPrefix(const Map& map, std::string_view prefix) {
  Map copy;
  for (auto it = map.lower_bound(prefix); it != map.end() && it->first.starts_with(prefix);
       ++it) {
    copy.emplace_hint(copy.end(), *it);
  }
  return copy;
}

}  // namespace

uint64_t LedgerSnapshot::Counter(std::string_view name) const { return Lookup(counters, name); }

uint64_t LedgerSnapshot::Max(std::string_view name) const { return Lookup(maxima, name); }

std::vector<double> LedgerSnapshot::Samples(std::string_view name) const {
  return Lookup(series, name).samples;
}

Ledger& Ledger::Global() {
  static Ledger* const ledger = new Ledger();
  return *ledger;
}

void Ledger::Record(std::initializer_list<Update> updates) {
  MutexLock lock(mutex_);
  for (const Update& update : updates) {
    switch (update.kind) {
      case Update::Kind::kAdd:
        Slot(entries_.counters, update.name) += update.value;
        break;
      case Update::Kind::kMax: {
        uint64_t& max = Slot(entries_.maxima, update.name);
        max = std::max(max, update.value);
        break;
      }
      case Update::Kind::kSample:
      case Update::Kind::kSeries: {
        LedgerSeries& series = Slot(entries_.series, update.name);
        if (series.bounds.empty()) series.bounds = *update.bounds;
        CP_DCHECK(series.bounds == *update.bounds);
        if (update.kind == Update::Kind::kSample) series.samples.push_back(update.sample);
        break;
      }
    }
  }
}

void Ledger::Reset(std::string_view prefix) {
  MutexLock lock(mutex_);
  ErasePrefix(entries_.counters, prefix);
  ErasePrefix(entries_.maxima, prefix);
  ErasePrefix(entries_.series, prefix);
}

LedgerSnapshot Ledger::Read(std::string_view prefix) const {
  MutexLock lock(mutex_);
  LedgerSnapshot snapshot;
  snapshot.counters = CopyPrefix(entries_.counters, prefix);
  snapshot.maxima = CopyPrefix(entries_.maxima, prefix);
  snapshot.series = CopyPrefix(entries_.series, prefix);
  return snapshot;
}

}  // namespace coverpack
