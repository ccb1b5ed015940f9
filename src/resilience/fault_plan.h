/// \file fault_plan.h
/// \brief Seeded, fully deterministic fault schedules for the MPC simulator.
///
/// The paper's MPC model charges every algorithm by its per-round
/// bottleneck load, implicitly assuming p perfectly reliable, identical
/// servers. A FaultPlan describes the world where they are not: per-round
/// server crashes during delivery, heterogeneous/straggling server speeds,
/// and per-message drop/duplicate corruptions. Every decision is a pure
/// function of (seed, arguments) — no internal state, no sequence counters
/// — so a plan answers identically regardless of call order or thread
/// count. That is what lets the FaultInjector promise bit-identical final
/// results: the same exchange asks the same questions and gets the same
/// faults at any parallelism level.

#ifndef COVERPACK_RESILIENCE_FAULT_PLAN_H_
#define COVERPACK_RESILIENCE_FAULT_PLAN_H_

#include <cstdint>

#include "util/hash.h"

namespace coverpack {
namespace resilience {

/// The knobs of a fault schedule. Rates are probabilities in [0, 1].
struct FaultSpec {
  uint64_t seed = 0;  ///< base seed of every fault decision stream

  /// P[a receiving server crashes during one delivery attempt]. A crash
  /// loses every message bound for that server in the attempt; recovery
  /// replays the round for it, re-sending its planned receive.
  double crash_rate = 0.0;

  /// P[(round, server) runs slow] and how slow: a straggling server
  /// processes its round at 1/straggler_severity speed. severity 1 = no
  /// slowdown even for "straggling" servers.
  double straggler_rate = 0.0;
  double straggler_severity = 1.0;

  /// Per-routed-row corruption probabilities of a delivery attempt:
  /// dropped messages and duplicated retransmissions. Either makes the
  /// attempt faulty; recovery replays the round for each affected server.
  double drop_rate = 0.0;
  double duplicate_rate = 0.0;

  /// Bounded-retry policy: after `max_attempts` faulty delivery attempts
  /// of one exchange, recovery degrades gracefully to a full deterministic
  /// rerun of the round (accounted as replaying the whole plan volume).
  uint32_t max_attempts = 4;

  /// True when any fault can actually occur under this spec.
  bool active() const {
    return crash_rate > 0.0 || drop_rate > 0.0 || duplicate_rate > 0.0 ||
           (straggler_rate > 0.0 && straggler_severity > 1.0);
  }
};

/// Simulated backoff accounting: faulty attempt k (0-based) of an exchange
/// charges min(kBackoffBase << k, kBackoffCap) backoff units to the ledger.
/// The injector clamps the shift at 63, and a base of 1 shifted that far
/// does not wrap, so every faulty attempt from the seventh on charges the cap.
inline constexpr uint64_t kBackoffBase = 1;
inline constexpr uint64_t kBackoffCap = 64;

/// A deterministic oracle over one FaultSpec. Copyable and cheap; all
/// queries are const and thread-safe (pure hashing).
class FaultPlan {
 public:
  FaultPlan() = default;  ///< inert plan: no faults, uniform speeds
  explicit FaultPlan(const FaultSpec& spec) : spec_(spec) {}

  const FaultSpec& spec() const { return spec_; }

  /// Content key of one exchange: mixes the round, the label, and the plan
  /// shape. Every fault decision of an exchange hangs off this key, so two
  /// executions of the same exchange — in any order, on any thread — fault
  /// identically. (Structurally identical exchanges share a key and
  /// therefore share faults; that is deterministic, which is the point.)
  static uint64_t ExchangeKey(uint32_t round, const char* label, uint64_t planned,
                              uint64_t recorded, uint32_t num_servers);

  /// Does `server` crash during attempt `attempt` of the exchange `key`?
  bool CrashesDelivery(uint64_t key, uint32_t attempt, uint32_t server) const;

  /// A row decision hashes (seed, stream, key, attempt, server), then the
  /// source, then the row. A RowPrefix holds the part that depends only on
  /// (seed, stream, key, attempt, server): one receiver's share of one
  /// attempt. ForSource then combines one source into it, so a walk over
  /// the routes computes a SourcePrefix once per (attempt, server, source)
  /// and hashes only the row per routed row. The two steps compute the
  /// hash a three-argument decision computes, so the decisions are the same.
  struct RowPrefix {
    uint64_t drop = 0;
    uint64_t duplicate = 0;
  };
  RowPrefix RowFaultPrefix(uint64_t key, uint32_t attempt, uint32_t server) const;

  /// `prefix` narrowed to the routes of source `source`.
  struct SourcePrefix {
    uint64_t drop = 0;
    uint64_t duplicate = 0;
  };
  static SourcePrefix ForSource(const RowPrefix& prefix, uint64_t source) {
    return {HashCombine(prefix.drop, source), HashCombine(prefix.duplicate, source)};
  }

  /// Is routed row `row` dropped / duplicated in the attempt, at the
  /// receiver and from the source that `prefix` was computed for?
  bool DropsRow(const SourcePrefix& prefix, uint64_t row) const {
    return Decide(HashCombine(prefix.drop, row), spec_.drop_rate);
  }
  bool DuplicatesRow(const SourcePrefix& prefix, uint64_t row) const {
    return Decide(HashCombine(prefix.duplicate, row), spec_.duplicate_rate);
  }

  /// The same decisions for row `row` of source `source`, from the
  /// receiver's RowPrefix.
  bool DropsRow(const RowPrefix& prefix, uint64_t source, uint64_t row) const {
    return DropsRow(ForSource(prefix, source), row);
  }
  bool DuplicatesRow(const RowPrefix& prefix, uint64_t source, uint64_t row) const {
    return DuplicatesRow(ForSource(prefix, source), row);
  }

  /// Relative speed of `server` in `round`: 1.0, or 1/straggler_severity
  /// when the (round, server) pair straggles. Always > 0.
  double SpeedOf(uint32_t round, uint32_t server) const;

 private:
  /// True with probability `rate` for the decision stream `h`: the top 53
  /// bits of MixHash(h) as a uniform double in [0, 1), compared to `rate`.
  static bool Decide(uint64_t h, double rate) {
    if (rate <= 0.0) return false;
    if (rate >= 1.0) return true;
    return static_cast<double>(MixHash(h) >> 11) * 0x1.0p-53 < rate;
  }

  FaultSpec spec_;
};

}  // namespace resilience
}  // namespace coverpack

#endif  // COVERPACK_RESILIENCE_FAULT_PLAN_H_
