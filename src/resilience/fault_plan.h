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

namespace coverpack {
namespace resilience {

/// The knobs of a fault schedule. Rates are probabilities in [0, 1].
struct FaultSpec {
  uint64_t seed = 0;  ///< base seed of every fault decision stream

  /// P[a receiving server crashes during one delivery attempt]. A crash
  /// loses every message bound for that server in the attempt; recovery
  /// restores the round checkpoint and replays the round for it.
  double crash_rate = 0.0;

  /// P[(round, server) runs slow] and how slow: a straggling server
  /// processes its round at 1/straggler_severity speed. severity 1 = no
  /// slowdown even for "straggling" servers.
  double straggler_rate = 0.0;
  double straggler_severity = 1.0;

  /// Per-routed-row corruption probabilities of a delivery attempt:
  /// dropped messages and duplicated retransmissions. Both are detected by
  /// the per-server receive accounting and repaired by round replay.
  double drop_rate = 0.0;
  double duplicate_rate = 0.0;

  /// Bounded-retry policy: after `max_attempts` faulty delivery attempts
  /// of one exchange, recovery degrades gracefully to a full deterministic
  /// rerun of the round (accounted as replaying the whole plan volume).
  uint32_t max_attempts = 4;

  /// Simulated backoff accounting: faulty attempt k (0-based) charges
  /// min(backoff_base << k, backoff_cap) backoff units to the ledger.
  uint64_t backoff_base = 1;
  uint64_t backoff_cap = 64;

  /// True when any fault can actually occur under this spec.
  bool active() const {
    return crash_rate > 0.0 || drop_rate > 0.0 || duplicate_rate > 0.0 ||
           (straggler_rate > 0.0 && straggler_severity > 1.0);
  }
};

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

  /// The part of a row decision's hash that depends only on (seed, stream,
  /// key, attempt, server): one receiver's share of one attempt. A per-row
  /// loop computes it once per receiver and decides each routed row from
  /// it with the prefix overloads below.
  struct RowPrefix {
    uint64_t drop = 0;
    uint64_t duplicate = 0;
  };
  RowPrefix RowFaultPrefix(uint64_t key, uint32_t attempt, uint32_t server) const;

  /// Is this routed row dropped / duplicated in attempt `attempt`? A row
  /// is identified by its (source, server, row) delivery coordinates. Both
  /// are the prefix overloads applied to RowFaultPrefix(key, attempt,
  /// server), so the two forms always agree.
  bool DropsRow(uint64_t key, uint32_t attempt, uint64_t source, uint32_t server,
                uint64_t row) const;
  bool DuplicatesRow(uint64_t key, uint32_t attempt, uint64_t source, uint32_t server,
                     uint64_t row) const;
  bool DropsRow(const RowPrefix& prefix, uint64_t source, uint64_t row) const;
  bool DuplicatesRow(const RowPrefix& prefix, uint64_t source, uint64_t row) const;

  /// Relative speed of `server` in `round`: 1.0, or 1/straggler_severity
  /// when the (round, server) pair straggles. Always > 0.
  double SpeedOf(uint32_t round, uint32_t server) const;

 private:
  FaultSpec spec_;
};

}  // namespace resilience
}  // namespace coverpack

#endif  // COVERPACK_RESILIENCE_FAULT_PLAN_H_
