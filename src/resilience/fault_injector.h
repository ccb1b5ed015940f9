/// \file fault_injector.h
/// \brief Exchange interposer that injects faults and prices their recovery.
///
/// The FaultInjector sits at the Exchange choke point (the only place any
/// tuple crosses server boundaries, see mpc/exchange.h) and subjects every
/// charged exchange to its FaultPlan: receiving servers crash mid-delivery,
/// individual messages are dropped or duplicated. Recovery is modelled as
/// replay at round granularity: a faulty attempt is retried, with
/// exponential-backoff accounting, until a clean attempt lands or the
/// bounded retry budget is exhausted; past the budget it degrades
/// gracefully to a full deterministic rerun of the exchange (accounted at
/// full plan volume). The injector is a read-only hook: it decides each
/// attempt's fate on a walk of the routes and writes nothing, and
/// Exchange::Execute then performs the one clean delivery and the
/// untouched load charging. So a run under any FaultPlan produces
/// bit-identical results, loads, and traces to the fault-free run — only
/// the fault.* / recovery.* ledger differs.
///
/// The walk decides crashes per receiving server, then draws every live
/// routed row's drop and duplicate dice shard-parallel on the global pool,
/// over the delivery's route shards (ExchangeDelivery::NumRouteShards and
/// ForEachRouteInShard). Each shard tallies its drops, duplicates and
/// corrupted receivers; the tallies are sums and ORs merged in shard order,
/// so every counter equals a serial walk's at any thread count. Each row
/// hashes only itself, from a per-(attempt, server, source) prefix computed
/// once per attempt (FaultPlan::RowFaultPrefix, then FaultPlan::ForSource).
///
/// All recovery cost lands in the run ledger's fault.* / recovery.*
/// namespaces (util/ledger.h), never in the LoadTracker: the tracker must
/// stay bit-identical to the fault-free run.

#ifndef COVERPACK_RESILIENCE_FAULT_INJECTOR_H_
#define COVERPACK_RESILIENCE_FAULT_INJECTOR_H_

#include <cstdint>

#include "mpc/exchange.h"
#include "resilience/fault_plan.h"

namespace coverpack {
namespace resilience {

/// What the perf probes (bench/perf/probes.cc) read of the ledger's
/// recovery.* namespace. Everything else reads the ledger by name.
struct ResilienceTelemetrySnapshot {
  uint64_t retries = 0;        ///< faulty attempts retried
  uint64_t full_reruns = 0;    ///< retry budget exhausted -> full replay
  uint64_t tuples_resent = 0;  ///< total recovery re-delivery volume
};

/// Read view over the ledger's fault.* / recovery.* namespaces, kept for
/// the perf probes only.
class ResilienceTelemetry {
 public:
  /// Drops the fault.* and recovery.* namespaces.
  static void Reset();
  static ResilienceTelemetrySnapshot Snapshot();
};

/// The interposer. Install around a run (see ScopedFaultInjection) and
/// every charged exchange is subjected to the plan's fault schedule.
/// Thread-safe: the injector holds only its immutable plan, and each
/// Observe call records into the ledger as one event.
class FaultInjector : public mpc::ExchangeInterposer {
 public:
  explicit FaultInjector(const FaultSpec& spec) : plan_(spec) {}
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  const FaultPlan& plan() const { return plan_; }

  void Observe(const mpc::ExchangeDelivery& delivery) override;

 private:
  FaultPlan plan_;
};

/// RAII installation of a FaultInjector as the process interposer. Nests:
/// the previously installed interposer (if any) is restored on destruction.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const FaultSpec& spec)
      : injector_(spec), previous_(mpc::ExchangeInterposer::Install(&injector_)) {}
  ~ScopedFaultInjection() { mpc::ExchangeInterposer::Install(previous_); }

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

 private:
  FaultInjector injector_;
  mpc::ExchangeInterposer* previous_;
};

}  // namespace resilience
}  // namespace coverpack

#endif  // COVERPACK_RESILIENCE_FAULT_INJECTOR_H_
