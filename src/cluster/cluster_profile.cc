#include "cluster/cluster_profile.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>

#include "util/hash.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace coverpack {
namespace cluster {

namespace {

/// Period of the geometric speed ladder: slots cycle through 8 speed
/// steps, so any contiguous active window sees the full spread.
constexpr uint32_t kGeometricPeriod = 8;

/// Range of kSeeded speeds: uniform in [1, 8).
constexpr double kSeededSpan = 7.0;

bool ParsePositiveDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  if (!(value > 0.0) || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

/// Parses a plain decimal integer no larger than `max`: digits only (no
/// sign, no whitespace) and no overflow, so every accepted value is exactly
/// the one ToString prints back.
bool ParseDecimal(const std::string& text, uint64_t max, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (max - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

/// Fixed-point with `places` decimals, trailing zeros (and a bare '.')
/// trimmed, so ToString round-trips through ParseSpeedSpec and stays
/// byte-stable across platforms.
std::string FormatDouble(double value, int places) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(places);
  out << value;
  std::string text = out.str();
  if (text.find('.') != std::string::npos) {
    while (!text.empty() && text.back() == '0') text.pop_back();
    if (!text.empty() && text.back() == '.') text.pop_back();
  }
  return text;
}

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : text) {
    if (c == ',') {
      parts.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  parts.push_back(current);
  return parts;
}

}  // namespace

std::string SpeedSpec::ToString() const {
  std::ostringstream out;
  switch (kind) {
    case Kind::kUniform:
      out << "uniform";
      break;
    case Kind::kHalves:
      out << "halves:" << FormatDouble(param, 3);
      break;
    case Kind::kGeometric:
      out << "geom:" << FormatDouble(param, 3);
      break;
    case Kind::kSeeded:
      out << "seeded:" << seed;
      break;
    case Kind::kExplicit:
      for (size_t i = 0; i < explicit_speeds.size(); ++i) {
        if (i != 0) out << ",";
        out << FormatDouble(explicit_speeds[i], 3);
      }
      break;
  }
  return out.str();
}

std::optional<SpeedSpec> ParseSpeedSpec(const std::string& text) {
  SpeedSpec spec;
  if (text.empty() || text == "uniform") return spec;
  if (text.rfind("halves:", 0) == 0) {
    spec.kind = SpeedSpec::Kind::kHalves;
    if (!ParsePositiveDouble(text.substr(7), &spec.param)) return std::nullopt;
    return spec;
  }
  if (text.rfind("geom:", 0) == 0) {
    spec.kind = SpeedSpec::Kind::kGeometric;
    if (!ParsePositiveDouble(text.substr(5), &spec.param)) return std::nullopt;
    if (spec.param < 1.0) return std::nullopt;
    return spec;
  }
  if (text.rfind("seeded:", 0) == 0) {
    spec.kind = SpeedSpec::Kind::kSeeded;
    if (!ParseDecimal(text.substr(7), std::numeric_limits<uint64_t>::max(), &spec.seed)) {
      return std::nullopt;
    }
    return spec;
  }
  spec.kind = SpeedSpec::Kind::kExplicit;
  for (const std::string& part : SplitCommas(text)) {
    double speed = 0.0;
    if (!ParsePositiveDouble(part, &speed)) return std::nullopt;
    spec.explicit_speeds.push_back(speed);
  }
  return spec;
}

std::string ElasticSpec::ToString() const {
  if (events.empty()) return "none";
  std::ostringstream out;
  for (size_t i = 0; i < events.size(); ++i) {
    if (i != 0) out << ",";
    out << (events[i].delta > 0 ? "+" : "") << events[i].delta << "@" << events[i].round;
  }
  return out.str();
}

std::optional<ElasticSpec> ParseElasticSpec(const std::string& text) {
  ElasticSpec spec;
  if (text.empty() || text == "none") return spec;
  // Deltas and net deltas stay within +-INT32_MAX, so negating one (a
  // leave) never overflows.
  constexpr int64_t kMaxDelta = std::numeric_limits<int32_t>::max();
  for (const std::string& part : SplitCommas(text)) {
    const size_t at = part.find('@');
    if (at == std::string::npos || at == 0) return std::nullopt;
    const bool leave = part[0] == '-';
    const size_t digits = (leave || part[0] == '+') ? 1 : 0;
    uint64_t count = 0;
    uint64_t round = 0;
    if (!ParseDecimal(part.substr(digits, at - digits), kMaxDelta, &count) || count == 0 ||
        !ParseDecimal(part.substr(at + 1), std::numeric_limits<uint32_t>::max(), &round) ||
        round == 0) {
      return std::nullopt;
    }
    const int32_t delta = static_cast<int32_t>(count);
    spec.events.push_back({static_cast<uint32_t>(round), leave ? -delta : delta});
  }
  // Canonical form: sorted by round, one merged event per round, rounds
  // whose events cancel out dropped.
  std::stable_sort(spec.events.begin(), spec.events.end(),
                   [](const ElasticEvent& a, const ElasticEvent& b) {
                     return a.round < b.round;
                   });
  std::vector<ElasticEvent> merged;
  int64_t net = 0;
  for (size_t i = 0; i < spec.events.size(); ++i) {
    net += spec.events[i].delta;
    if (i + 1 < spec.events.size() && spec.events[i + 1].round == spec.events[i].round) {
      continue;
    }
    if (net > kMaxDelta || net < -kMaxDelta) return std::nullopt;
    if (net != 0) merged.push_back({spec.events[i].round, static_cast<int32_t>(net)});
    net = 0;
  }
  spec.events = std::move(merged);
  return spec;
}

ClusterProfile::ClusterProfile(uint32_t base_p, const SpeedSpec& speeds,
                               const ElasticSpec& schedule)
    : base_p_(base_p), speed_spec_(speeds), schedule_(schedule) {
  CP_CHECK_GE(base_p, 1u);
  if (speed_spec_.kind == SpeedSpec::Kind::kExplicit) {
    CP_CHECK(!speed_spec_.explicit_speeds.empty());
    for (double s : speed_spec_.explicit_speeds) CP_CHECK(s > 0.0);
  }
  // Resolve the schedule into epochs. `active` is kept sorted; joins take
  // the lowest inactive slots, leaves the highest active ones.
  Epoch epoch;
  epoch.first_round = 0;
  for (uint32_t s = 0; s < base_p; ++s) epoch.active.push_back(s);
  uint32_t next_fresh_slot = base_p;
  epochs_.push_back(epoch);
  uint32_t previous_round = 0;
  for (const ElasticEvent& event : schedule_.events) {
    CP_CHECK_GT(event.round, previous_round)
        << "elastic events must be strictly ordered by round";
    previous_round = event.round;
    Epoch next = epochs_.back();
    next.first_round = event.round;
    if (event.delta > 0) {
      // Joins reuse the lowest departed slots first, then fresh ids.
      for (int32_t j = 0; j < event.delta; ++j) {
        uint32_t slot = 0;
        bool found = false;
        for (uint32_t candidate = 0; candidate < next_fresh_slot; ++candidate) {
          if (!std::binary_search(next.active.begin(), next.active.end(), candidate)) {
            slot = candidate;
            found = true;
            break;
          }
        }
        if (!found) slot = next_fresh_slot++;
        next.active.insert(
            std::lower_bound(next.active.begin(), next.active.end(), slot), slot);
      }
    } else {
      const uint32_t leaving = static_cast<uint32_t>(-event.delta);
      CP_CHECK_GT(next.active.size(), leaving)
          << "elastic schedule would drop the fleet below one server";
      next.active.resize(next.active.size() - leaving);
    }
    epochs_.push_back(std::move(next));
  }
  num_slots_ = next_fresh_slot;
  for (const Epoch& e : epochs_) {
    num_slots_ = std::max(num_slots_, e.active.back() + 1);
  }
}

double ClusterProfile::SpeedOfSlot(uint32_t slot) const {
  switch (speed_spec_.kind) {
    case SpeedSpec::Kind::kUniform:
      return 1.0;
    case SpeedSpec::Kind::kHalves:
      return (slot % 2 == 0) ? speed_spec_.param : 1.0;
    case SpeedSpec::Kind::kGeometric: {
      const double frac = static_cast<double>(slot % kGeometricPeriod) /
                          static_cast<double>(kGeometricPeriod - 1);
      return std::pow(speed_spec_.param, frac);
    }
    case SpeedSpec::Kind::kSeeded: {
      // Pure hash of (seed, slot), mapped to [1, 1 + kSeededSpan): the
      // FaultPlan idiom — no state, bit-identical at any thread count.
      const uint64_t h = MixHash(HashCombine(speed_spec_.seed, 0x5eedull + slot));
      const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
      return 1.0 + kSeededSpan * unit;
    }
    case SpeedSpec::Kind::kExplicit:
      return speed_spec_.explicit_speeds[slot % speed_spec_.explicit_speeds.size()];
  }
  return 1.0;
}

const Epoch& ClusterProfile::EpochForRound(uint32_t round) const {
  const Epoch* chosen = &epochs_.front();
  for (const Epoch& epoch : epochs_) {
    if (epoch.first_round <= round) chosen = &epoch;
  }
  return *chosen;
}

std::vector<double> ClusterProfile::ActiveSpeeds(const Epoch& epoch) const {
  std::vector<double> speeds;
  speeds.reserve(epoch.active.size());
  for (uint32_t slot : epoch.active) speeds.push_back(SpeedOfSlot(slot));
  return speeds;
}

std::vector<double> ClusterProfile::NormalizedActiveSpeeds(const Epoch& epoch) const {
  std::vector<double> speeds = ActiveSpeeds(epoch);
  double total = 0.0;
  for (double s : speeds) total += s;
  const double mean = total / static_cast<double>(speeds.size());
  for (double& s : speeds) s /= mean;
  return speeds;
}

uint64_t ClusterProfile::ContentKey() const {
  uint64_t key = HashCombine(0xC1057E12ull, base_p_);
  key = HashCombine(key, static_cast<uint64_t>(speed_spec_.kind));
  uint64_t param_bits = 0;
  static_assert(sizeof(param_bits) == sizeof(speed_spec_.param));
  std::memcpy(&param_bits, &speed_spec_.param, sizeof(param_bits));
  key = HashCombine(key, param_bits);
  key = HashCombine(key, speed_spec_.seed);
  for (double s : speed_spec_.explicit_speeds) {
    uint64_t bits = 0;
    std::memcpy(&bits, &s, sizeof(bits));
    key = HashCombine(key, bits);
  }
  for (const ElasticEvent& event : schedule_.events) {
    key = HashCombine(key, event.round);
    key = HashCombine(key, static_cast<uint64_t>(static_cast<int64_t>(event.delta)));
  }
  return key;
}

std::vector<uint64_t> ProportionalShares(const std::vector<double>& weights,
                                         uint64_t total_units) {
  CP_CHECK(!weights.empty());
  double total_weight = 0.0;
  for (double w : weights) {
    CP_CHECK(w > 0.0);
    total_weight += w;
  }
  std::vector<uint64_t> shares(weights.size(), 0);
  std::vector<std::pair<double, size_t>> remainders;
  remainders.reserve(weights.size());
  uint64_t assigned = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double exact =
        static_cast<double>(total_units) * (weights[i] / total_weight);
    shares[i] = static_cast<uint64_t>(exact);
    assigned += shares[i];
    remainders.emplace_back(exact - static_cast<double>(shares[i]), i);
  }
  // Largest remainder first; equal remainders go to the lower index.
  std::sort(remainders.begin(), remainders.end(),
            [](const std::pair<double, size_t>& a, const std::pair<double, size_t>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  CP_CHECK_LE(assigned, total_units);
  uint64_t leftover = total_units - assigned;
  for (size_t i = 0; leftover > 0; i = (i + 1) % remainders.size(), --leftover) {
    ++shares[remainders[i].second];
  }
  return shares;
}

}  // namespace cluster
}  // namespace coverpack
