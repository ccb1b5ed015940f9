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
/// All recovery cost lands in the process-global ResilienceTelemetry
/// ledger (Reset / Snapshot, mirroring ExchangeTelemetry) and is surfaced
/// as fault.* / recovery.* metrics in bench reports.

#ifndef COVERPACK_RESILIENCE_FAULT_INJECTOR_H_
#define COVERPACK_RESILIENCE_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "mpc/exchange.h"
#include "resilience/checkpoint.h"
#include "resilience/fault_plan.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace coverpack {
namespace resilience {

/// Point-in-time copy of the recovery ledger. Sample vectors hold
/// integer-valued doubles only, so downstream histogram aggregates are
/// exact and independent of the (thread-dependent) recording order.
struct ResilienceTelemetrySnapshot {
  uint64_t exchanges_injected = 0;  ///< charged exchanges run under the injector
  uint64_t exchanges_faulted = 0;   ///< of those, how many needed recovery
  uint64_t crashes = 0;             ///< (attempt, server) crash events
  uint64_t rows_dropped = 0;        ///< messages lost to drop corruption
  uint64_t rows_duplicated = 0;     ///< messages duplicated in transit
  uint64_t retries = 0;             ///< faulty attempts rolled back and retried
  uint64_t full_reruns = 0;         ///< retry budget exhausted -> full replay
  uint64_t backoff_units = 0;       ///< simulated backoff cost, min(base<<k, cap)
  uint64_t tuples_resent = 0;       ///< total recovery re-delivery volume
  uint64_t tuples_resent_crash = 0;       ///< ... due to server crashes
  uint64_t tuples_resent_corruption = 0;  ///< ... due to drop/duplicate
  uint64_t tuples_resent_full_rerun = 0;  ///< ... due to full reruns
  uint64_t checkpoints_captured = 0;  ///< implicit round checkpoints taken
  uint64_t checkpoint_tuples = 0;     ///< tuples those checkpoints protected
  uint64_t max_single_resend = 0;     ///< largest per-server resend, any crash
  std::vector<double> attempts_samples;  ///< delivery attempts per faulted exchange
  std::vector<double> resent_samples;    ///< tuples resent per faulted exchange
};

/// Process-global recovery ledger. Kept separate from the LoadTracker on
/// purpose: the tracker must stay bit-identical to the fault-free run, so
/// every cost of *recovering* lives here instead.
class ResilienceTelemetry {
 public:
  /// One exchange's worth of recovery accounting, merged atomically.
  struct ExchangeRecord {
    bool faulted = false;
    uint64_t crashes = 0;
    uint64_t rows_dropped = 0;
    uint64_t rows_duplicated = 0;
    uint64_t retries = 0;
    bool full_rerun = false;
    uint64_t backoff_units = 0;
    uint64_t tuples_resent = 0;
    uint64_t tuples_resent_crash = 0;
    uint64_t tuples_resent_corruption = 0;
    uint64_t tuples_resent_full_rerun = 0;
    uint64_t checkpoint_tuples = 0;
    uint64_t max_single_resend = 0;
    uint64_t attempts = 0;  ///< total delivery attempts, incl. the clean one
  };

  static void Reset();
  static void Record(const ExchangeRecord& record);
  static ResilienceTelemetrySnapshot Snapshot();
};

/// The interposer. Install around a run (see ScopedFaultInjection) and
/// every charged exchange is delivered under the plan's fault schedule.
/// Thread-safe: concurrent Deliver calls work on disjoint delivery state
/// and merge into the ledger under its lock.
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
