/// \file fault_injector.h
/// \brief Exchange interposer that injects faults and recovers from them.
///
/// The FaultInjector sits at the Exchange choke point (the only place any
/// tuple crosses server boundaries, see mpc/exchange.h) and subjects every
/// charged exchange to its FaultPlan: receiving servers crash mid-delivery,
/// individual messages are dropped or duplicated. Recovery is
/// restore-and-replay at round granularity — a faulty attempt rolls the
/// round back to its pre-exchange checkpoint and the delivery is retried,
/// with exponential-backoff accounting, until a clean attempt lands or the
/// bounded retry budget is exhausted; past the budget it degrades
/// gracefully to a full deterministic rerun of the exchange (accounted at
/// full plan volume). Each attempt's fate is decided first, on a read-only
/// walk of the routes (ExchangeDelivery::ForEachRoute), so rows are written
/// only once: by the accepted clean attempt or by the final rerun, through
/// the coalesced clean delivery. Because that delivery is the fault-free
/// one and the load charging in Exchange::Execute is untouched, a run under
/// any FaultPlan produces bit-identical results, loads, and traces to the
/// fault-free run — only the fault.* / recovery.* ledger differs.
///
/// All recovery cost lands in the run ledger's fault.* / recovery.*
/// namespaces (util/ledger.h), never in the LoadTracker: the tracker must
/// stay bit-identical to the fault-free run.

#ifndef COVERPACK_RESILIENCE_FAULT_INJECTOR_H_
#define COVERPACK_RESILIENCE_FAULT_INJECTOR_H_

#include <cstdint>

#include "mpc/exchange.h"
#include "resilience/checkpoint.h"
#include "resilience/fault_plan.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace coverpack {
namespace resilience {

/// What the perf probes (bench/perf/probes.cc) read of the ledger's
/// recovery.* namespace. Everything else reads the ledger by name.
struct ResilienceTelemetrySnapshot {
  uint64_t retries = 0;        ///< faulty attempts rolled back and retried
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
/// every charged exchange is delivered under the plan's fault schedule.
/// Thread-safe: concurrent Deliver calls work on disjoint delivery state
/// and record into the ledger one event each.
class FaultInjector : public mpc::ExchangeInterposer {
 public:
  explicit FaultInjector(const FaultSpec& spec) : plan_(spec) {}
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  const FaultPlan& plan() const { return plan_; }

  /// Per-injector view of the implicit checkpoints taken so far.
  RoundCheckpointStore CheckpointLedger() const;

  uint64_t Deliver(mpc::ExchangeDelivery& delivery) override;

 private:
  FaultPlan plan_;
  mutable Mutex mutex_;
  RoundCheckpointStore checkpoints_ CP_GUARDED_BY(mutex_);
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

  FaultInjector& injector() { return injector_; }

 private:
  FaultInjector injector_;
  mpc::ExchangeInterposer* previous_;
};

}  // namespace resilience
}  // namespace coverpack

#endif  // COVERPACK_RESILIENCE_FAULT_INJECTOR_H_
