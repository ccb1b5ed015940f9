#include "resilience/fault_injector.h"

#include <algorithm>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace coverpack {
namespace resilience {

namespace {

/// Process-global ledger state. Same single-mutex pattern as
/// ExchangeTelemetry: exchanges execute from both the main thread and pool
/// tasks, and the ledger must merge their recovery costs race-free.
struct LedgerState {
  Mutex mutex;
  uint64_t exchanges_injected CP_GUARDED_BY(mutex) = 0;
  uint64_t exchanges_faulted CP_GUARDED_BY(mutex) = 0;
  uint64_t crashes CP_GUARDED_BY(mutex) = 0;
  uint64_t rows_dropped CP_GUARDED_BY(mutex) = 0;
  uint64_t rows_duplicated CP_GUARDED_BY(mutex) = 0;
  uint64_t retries CP_GUARDED_BY(mutex) = 0;
  uint64_t full_reruns CP_GUARDED_BY(mutex) = 0;
  uint64_t backoff_units CP_GUARDED_BY(mutex) = 0;
  uint64_t tuples_resent CP_GUARDED_BY(mutex) = 0;
  uint64_t tuples_resent_crash CP_GUARDED_BY(mutex) = 0;
  uint64_t tuples_resent_corruption CP_GUARDED_BY(mutex) = 0;
  uint64_t tuples_resent_full_rerun CP_GUARDED_BY(mutex) = 0;
  uint64_t checkpoints_captured CP_GUARDED_BY(mutex) = 0;
  uint64_t checkpoint_tuples CP_GUARDED_BY(mutex) = 0;
  uint64_t max_single_resend CP_GUARDED_BY(mutex) = 0;
  std::vector<double> attempts_samples CP_GUARDED_BY(mutex);
  std::vector<double> resent_samples CP_GUARDED_BY(mutex);
};

LedgerState& Ledger() {
  static LedgerState state;
  return state;
}

}  // namespace

void ResilienceTelemetry::Reset() {
  LedgerState& state = Ledger();
  MutexLock lock(state.mutex);
  state.exchanges_injected = 0;
  state.exchanges_faulted = 0;
  state.crashes = 0;
  state.rows_dropped = 0;
  state.rows_duplicated = 0;
  state.retries = 0;
  state.full_reruns = 0;
  state.backoff_units = 0;
  state.tuples_resent = 0;
  state.tuples_resent_crash = 0;
  state.tuples_resent_corruption = 0;
  state.tuples_resent_full_rerun = 0;
  state.checkpoints_captured = 0;
  state.checkpoint_tuples = 0;
  state.max_single_resend = 0;
  state.attempts_samples.clear();
  state.resent_samples.clear();
}

void ResilienceTelemetry::Record(const ExchangeRecord& record) {
  LedgerState& state = Ledger();
  MutexLock lock(state.mutex);
  ++state.exchanges_injected;
  ++state.checkpoints_captured;
  state.checkpoint_tuples += record.checkpoint_tuples;
  if (!record.faulted) return;
  ++state.exchanges_faulted;
  state.crashes += record.crashes;
  state.rows_dropped += record.rows_dropped;
  state.rows_duplicated += record.rows_duplicated;
  state.retries += record.retries;
  if (record.full_rerun) ++state.full_reruns;
  state.backoff_units += record.backoff_units;
  state.tuples_resent += record.tuples_resent;
  state.tuples_resent_crash += record.tuples_resent_crash;
  state.tuples_resent_corruption += record.tuples_resent_corruption;
  state.tuples_resent_full_rerun += record.tuples_resent_full_rerun;
  state.max_single_resend = std::max(state.max_single_resend, record.max_single_resend);
  // Samples are integer counts stored as doubles: histogram sums over them
  // are exact in any accumulation order, which keeps reports bit-identical
  // across thread counts even though exchanges record concurrently.
  state.attempts_samples.push_back(static_cast<double>(record.attempts));
  state.resent_samples.push_back(static_cast<double>(record.tuples_resent));
}

ResilienceTelemetrySnapshot ResilienceTelemetry::Snapshot() {
  LedgerState& state = Ledger();
  MutexLock lock(state.mutex);
  ResilienceTelemetrySnapshot snapshot;
  snapshot.exchanges_injected = state.exchanges_injected;
  snapshot.exchanges_faulted = state.exchanges_faulted;
  snapshot.crashes = state.crashes;
  snapshot.rows_dropped = state.rows_dropped;
  snapshot.rows_duplicated = state.rows_duplicated;
  snapshot.retries = state.retries;
  snapshot.full_reruns = state.full_reruns;
  snapshot.backoff_units = state.backoff_units;
  snapshot.tuples_resent = state.tuples_resent;
  snapshot.tuples_resent_crash = state.tuples_resent_crash;
  snapshot.tuples_resent_corruption = state.tuples_resent_corruption;
  snapshot.tuples_resent_full_rerun = state.tuples_resent_full_rerun;
  snapshot.checkpoints_captured = state.checkpoints_captured;
  snapshot.checkpoint_tuples = state.checkpoint_tuples;
  snapshot.max_single_resend = state.max_single_resend;
  snapshot.attempts_samples = state.attempts_samples;
  snapshot.resent_samples = state.resent_samples;
  return snapshot;
}

RoundCheckpointStore FaultInjector::CheckpointLedger() const {
  MutexLock lock(mutex_);
  return checkpoints_;
}

uint64_t FaultInjector::Deliver(mpc::ExchangeDelivery& delivery) {
  const mpc::ExchangePlan& plan = delivery.plan();
  const FaultSpec& spec = plan_.spec();
  // Uncharged exchanges (driver-side moves like the initial placement) and
  // empty plans are outside the fault model — deliver them untouched.
  if (!spec.active() || !delivery.charged() || plan.total_planned() == 0) {
    return delivery.Attempt();
  }

  const uint64_t key =
      FaultPlan::ExchangeKey(delivery.round(), delivery.label(), plan.total_planned(),
                             plan.recorded_planned(), plan.num_servers());
  {
    MutexLock lock(mutex_);
    checkpoints_.NoteCapture(delivery.round(), delivery.CheckpointedRows());
  }

  ResilienceTelemetry::ExchangeRecord record;
  record.checkpoint_tuples = delivery.CheckpointedRows();
  const bool row_faults_possible = spec.drop_rate > 0.0 || spec.duplicate_rate > 0.0;

  uint32_t attempt = 0;
  for (; attempt < spec.max_attempts; ++attempt) {
    // Crashes are decided up front per attempt: a crashed receiver loses
    // every message bound for it in this attempt. Servers that receive
    // nothing cannot observably crash.
    std::vector<uint8_t> crashed(plan.num_servers(), 0);
    uint64_t attempt_crashes = 0;
    for (uint32_t s = 0; s < plan.num_servers(); ++s) {
      if (plan.PlannedReceive(s) == 0) continue;
      if (plan_.CrashesDelivery(key, attempt, s)) {
        crashed[s] = 1;
        ++attempt_crashes;
      }
    }
    // No crash and no per-row fault stream: this attempt is provably
    // clean, so fall through to the coalesced clean delivery below.
    if (attempt_crashes == 0 && !row_faults_possible) break;

    // Every routed row bound for a live receiver draws its drop and
    // duplicate dice; rows bound for a crashed one are lost wholesale.
    // Fates are decided on a read-only walk of the routes: no row is
    // written until an attempt is known to be clean.
    uint64_t attempt_drops = 0;
    uint64_t attempt_dups = 0;
    std::vector<uint8_t> corrupted = crashed;
    if (row_faults_possible) {
      std::vector<FaultPlan::RowPrefix> prefixes(plan.num_servers());
      for (uint32_t s = 0; s < plan.num_servers(); ++s) {
        if (crashed[s] == 0) prefixes[s] = plan_.RowFaultPrefix(key, attempt, s);
      }
      delivery.ForEachRoute([&](size_t source, uint32_t server, size_t row) {
        if (crashed[server] != 0) return;
        if (plan_.DropsRow(prefixes[server], source, row)) {
          ++attempt_drops;
          corrupted[server] = 1;
        } else if (plan_.DuplicatesRow(prefixes[server], source, row)) {
          ++attempt_dups;
          corrupted[server] = 1;
        }
      });
    }
    // The dice came up clean: this attempt delivers every message exactly
    // once, which is the coalesced clean delivery below.
    if (attempt_crashes == 0 && attempt_drops == 0 && attempt_dups == 0) break;

    // Faulty attempt: the round rolls back to its checkpoint (nothing was
    // written, so there is nothing to truncate), the recovery ledger is
    // charged, and the delivery is retried with backoff.
    ++record.attempts;
    {
      MutexLock lock(mutex_);
      checkpoints_.NoteRestore(delivery.round());
    }
    record.faulted = true;
    ++record.retries;
    record.crashes += attempt_crashes;
    record.rows_dropped += attempt_drops;
    record.rows_duplicated += attempt_dups;
    const uint64_t shift = attempt < 63 ? attempt : 63;
    record.backoff_units += std::min(spec.backoff_base << shift, spec.backoff_cap);
    // Replaying the round re-sends each affected server its full planned
    // receive — by definition at most the round's bottleneck load each.
    for (uint32_t s = 0; s < plan.num_servers(); ++s) {
      if (corrupted[s] == 0) continue;
      const uint64_t amount = plan.PlannedReceive(s);
      record.tuples_resent += amount;
      if (crashed[s] != 0) {
        record.tuples_resent_crash += amount;
      } else {
        record.tuples_resent_corruption += amount;
      }
      record.max_single_resend = std::max(record.max_single_resend, amount);
    }
  }

  if (record.faulted && attempt >= spec.max_attempts) {
    // Retry budget exhausted: degrade gracefully to a full deterministic
    // rerun of the exchange, accounted at full plan volume.
    record.full_rerun = true;
    record.tuples_resent += plan.total_planned();
    record.tuples_resent_full_rerun += plan.total_planned();
  }
  // The accepted clean attempt or the full rerun: the only rows written.
  const uint64_t delivered = delivery.Attempt();
  ++record.attempts;
  ResilienceTelemetry::Record(record);
  return delivered;
}

}  // namespace resilience
}  // namespace coverpack
