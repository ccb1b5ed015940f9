#include "resilience/fault_plan.h"

#include "util/hash.h"

namespace coverpack {
namespace resilience {

namespace {

/// Distinct stream tags keep the decision families independent: a crash
/// decision never correlates with a drop decision at the same coordinates.
enum StreamTag : uint64_t {
  kCrashStream = 0x43524153u,      // "CRAS"
  kDropStream = 0x44524F50u,       // "DROP"
  kDuplicateStream = 0x44555043u,  // "DUPC"
  kStragglerStream = 0x53545247u,  // "STRG"
};

}  // namespace

uint64_t FaultPlan::ExchangeKey(uint32_t round, const char* label, uint64_t planned,
                                uint64_t recorded, uint32_t num_servers) {
  uint64_t h = HashCombine(0x45584348u /* "EXCH" */, round);
  for (const char* c = label; *c != '\0'; ++c) {
    h = HashCombine(h, static_cast<uint64_t>(static_cast<unsigned char>(*c)));
  }
  h = HashCombine(h, planned);
  h = HashCombine(h, recorded);
  h = HashCombine(h, num_servers);
  return h;
}

bool FaultPlan::CrashesDelivery(uint64_t key, uint32_t attempt, uint32_t server) const {
  uint64_t h = HashCombine(HashCombine(HashCombine(spec_.seed, kCrashStream), key),
                           (uint64_t{attempt} << 32) | server);
  return Decide(h, spec_.crash_rate);
}

FaultPlan::RowPrefix FaultPlan::RowFaultPrefix(uint64_t key, uint32_t attempt,
                                               uint32_t server) const {
  const uint64_t coordinates = (uint64_t{attempt} << 32) | server;
  RowPrefix prefix;
  prefix.drop = HashCombine(HashCombine(HashCombine(spec_.seed, kDropStream), key), coordinates);
  prefix.duplicate =
      HashCombine(HashCombine(HashCombine(spec_.seed, kDuplicateStream), key), coordinates);
  return prefix;
}

double FaultPlan::SpeedOf(uint32_t round, uint32_t server) const {
  if (spec_.straggler_rate <= 0.0 || spec_.straggler_severity <= 1.0) return 1.0;
  uint64_t h = HashCombine(HashCombine(spec_.seed, kStragglerStream),
                           (uint64_t{round} << 32) | server);
  return Decide(h, spec_.straggler_rate) ? 1.0 / spec_.straggler_severity : 1.0;
}

}  // namespace resilience
}  // namespace coverpack
