#include "resilience/fault_injector.h"

#include <algorithm>
#include <vector>

#include "util/ledger.h"
#include "util/mutex.h"

namespace coverpack {
namespace resilience {

void ResilienceTelemetry::Reset() {
  Ledger::Global().Reset("fault.");
  Ledger::Global().Reset("recovery.");
}

ResilienceTelemetrySnapshot ResilienceTelemetry::Snapshot() {
  const LedgerSnapshot ledger = Ledger::Global().Read("recovery.");
  return {ledger.Counter("recovery.retries"), ledger.Counter("recovery.full_reruns"),
          ledger.Counter("recovery.tuples_resent")};
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

  // This exchange's recovery tallies: each faulty attempt is one retry,
  // and every resend is split by cause.
  uint64_t retries = 0;
  uint64_t crashes = 0;
  uint64_t rows_dropped = 0;
  uint64_t rows_duplicated = 0;
  uint64_t backoff_units = 0;
  uint64_t resent_crash = 0;
  uint64_t resent_corruption = 0;
  uint64_t resent_full_rerun = 0;
  uint64_t max_single_resend = 0;
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
    {
      MutexLock lock(mutex_);
      checkpoints_.NoteRestore(delivery.round());
    }
    ++retries;
    crashes += attempt_crashes;
    rows_dropped += attempt_drops;
    rows_duplicated += attempt_dups;
    const uint64_t shift = attempt < 63 ? attempt : 63;
    backoff_units += std::min(spec.backoff_base << shift, spec.backoff_cap);
    // Replaying the round re-sends each affected server its full planned
    // receive — by definition at most the round's bottleneck load each.
    for (uint32_t s = 0; s < plan.num_servers(); ++s) {
      if (corrupted[s] == 0) continue;
      const uint64_t amount = plan.PlannedReceive(s);
      if (crashed[s] != 0) {
        resent_crash += amount;
      } else {
        resent_corruption += amount;
      }
      max_single_resend = std::max(max_single_resend, amount);
    }
  }

  const bool faulted = retries > 0;
  // Retry budget exhausted: degrade gracefully to a full deterministic
  // rerun of the exchange, accounted at full plan volume.
  const bool full_rerun = faulted && attempt >= spec.max_attempts;
  if (full_rerun) resent_full_rerun = plan.total_planned();
  // The accepted clean attempt or the full rerun: the only rows written.
  const uint64_t delivered = delivery.Attempt();

  // One ledger event per injected exchange, touching every fault.* and
  // recovery.* key. Samples (delivery attempts incl. the clean one, and
  // tuples resent) are integer counts stored as doubles, so histogram sums
  // over them are exact in any order of concurrent recording.
  static const std::vector<double> kAttemptBounds = {1.0, 2.0, 3.0, 4.0, 6.0, 8.0};
  static const std::vector<double> kResentBounds = {1.0, 10.0, 100.0, 1000.0,
                                                    1e4, 1e5,  1e6,   1e7};
  const uint64_t tuples_resent = resent_crash + resent_corruption + resent_full_rerun;
  Ledger::Global().Record(
      {Ledger::Add("fault.exchanges_injected", 1),
       Ledger::Add("fault.exchanges_faulted", faulted ? 1 : 0),
       Ledger::Add("fault.crashes", crashes), Ledger::Add("fault.rows_dropped", rows_dropped),
       Ledger::Add("fault.rows_duplicated", rows_duplicated),
       Ledger::Add("recovery.retries", retries),
       Ledger::Add("recovery.full_reruns", full_rerun ? 1 : 0),
       Ledger::Add("recovery.backoff_units", backoff_units),
       Ledger::Add("recovery.tuples_resent", tuples_resent),
       Ledger::Add("recovery.tuples_resent_crash", resent_crash),
       Ledger::Add("recovery.tuples_resent_corruption", resent_corruption),
       Ledger::Add("recovery.tuples_resent_full_rerun", resent_full_rerun),
       Ledger::Add("recovery.checkpoints_captured", 1),
       Ledger::Add("recovery.checkpoint_tuples", delivery.CheckpointedRows()),
       Ledger::Max("recovery.max_single_resend", max_single_resend),
       faulted ? Ledger::Sample("recovery.attempts_per_exchange", kAttemptBounds,
                                static_cast<double>(retries + 1))
               : Ledger::Series("recovery.attempts_per_exchange", kAttemptBounds),
       faulted ? Ledger::Sample("recovery.resent_per_faulted_exchange", kResentBounds,
                                static_cast<double>(tuples_resent))
               : Ledger::Series("recovery.resent_per_faulted_exchange", kResentBounds)});
  return delivered;
}

}  // namespace resilience
}  // namespace coverpack
