#include "resilience/fault_injector.h"

#include <algorithm>
#include <vector>

#include "util/ledger.h"
#include "util/thread_pool.h"

namespace coverpack {
namespace resilience {

namespace {

/// The row dice of one delivery attempt: how many rows were dropped and
/// how many duplicated.
struct RowFaultCounts {
  uint64_t drops = 0;
  uint64_t duplicates = 0;
};

/// Draws attempt `attempt`'s drop and duplicate dice for every route bound
/// for a live (not crashed) receiver and marks each receiver that lost or
/// gained a row in `corrupted`. The dice are pure functions of their
/// coordinates, so the walk runs shard-parallel over the delivery's route
/// shards: each shard tallies its drops, duplicates and a bitmap of the
/// receivers it corrupted, and the tallies (sums and ORs) merge in shard
/// order. Rows draw from per-(source, server) prefixes computed once here.
RowFaultCounts DrawRowFaults(const FaultPlan& faults, const mpc::ExchangeDelivery& delivery,
                             uint64_t key, uint32_t attempt, const std::vector<uint8_t>& crashed,
                             std::vector<uint8_t>* corrupted) {
  const mpc::ExchangePlan& plan = delivery.plan();
  const uint32_t p = plan.num_servers();
  std::vector<FaultPlan::SourcePrefix> prefixes(plan.num_sources() * p);
  for (uint32_t s = 0; s < p; ++s) {
    if (crashed[s] != 0) continue;
    const FaultPlan::RowPrefix prefix = faults.RowFaultPrefix(key, attempt, s);
    for (size_t source = 0; source < plan.num_sources(); ++source) {
      prefixes[source * p + s] = FaultPlan::ForSource(prefix, source);
    }
  }

  const size_t num_shards = delivery.NumRouteShards();
  const size_t words = (p + 63) / 64;
  std::vector<RowFaultCounts> tallies(num_shards);
  std::vector<uint64_t> corrupted_bits(num_shards * words, 0);
  ThreadPool::Global().ParallelFor(0, num_shards, 1, [&](size_t k) {
    RowFaultCounts tally;
    uint64_t* bits = corrupted_bits.data() + k * words;
    delivery.ForEachRouteInShard(k, [&](size_t source, uint32_t server, size_t row) {
      if (crashed[server] != 0) return;
      const FaultPlan::SourcePrefix& prefix = prefixes[source * p + server];
      if (faults.DropsRow(prefix, row)) {
        ++tally.drops;
      } else if (faults.DuplicatesRow(prefix, row)) {
        ++tally.duplicates;
      } else {
        return;
      }
      bits[server / 64] |= uint64_t{1} << (server % 64);
    });
    tallies[k] = tally;
  });

  RowFaultCounts total;
  std::vector<uint64_t> merged(words, 0);
  for (size_t k = 0; k < num_shards; ++k) {
    total.drops += tallies[k].drops;
    total.duplicates += tallies[k].duplicates;
    for (size_t w = 0; w < words; ++w) merged[w] |= corrupted_bits[k * words + w];
  }
  for (uint32_t s = 0; s < p; ++s) {
    if ((merged[s / 64] >> (s % 64)) & 1) (*corrupted)[s] = 1;
  }
  return total;
}

}  // namespace

void ResilienceTelemetry::Reset() {
  Ledger::Global().Reset("fault.");
  Ledger::Global().Reset("recovery.");
}

ResilienceTelemetrySnapshot ResilienceTelemetry::Snapshot() {
  const Metrics ledger = Ledger::Global().Read("recovery.");
  return {ledger.CounterValue("recovery.retries"), ledger.CounterValue("recovery.full_reruns"),
          ledger.CounterValue("recovery.tuples_resent")};
}

void FaultInjector::Observe(const mpc::ExchangeDelivery& delivery) {
  const mpc::ExchangePlan& plan = delivery.plan();
  const FaultSpec& spec = plan_.spec();
  // Uncharged exchanges (driver-side moves like the initial placement) and
  // empty plans are outside the fault model.
  if (!spec.active() || !delivery.charged() || plan.total_planned() == 0) return;

  const uint64_t key =
      FaultPlan::ExchangeKey(delivery.round(), delivery.label(), plan.total_planned(),
                             plan.recorded_planned(), plan.num_servers());

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
    // clean, and it is the delivery Execute performs.
    if (attempt_crashes == 0 && !row_faults_possible) break;

    // Every routed row bound for a live receiver draws its drop and
    // duplicate dice; rows bound for a crashed one are lost wholesale.
    std::vector<uint8_t> corrupted = crashed;
    const RowFaultCounts row_faults =
        row_faults_possible
            ? DrawRowFaults(plan_, delivery, key, attempt, crashed, &corrupted)
            : RowFaultCounts{};
    // The dice came up clean: this attempt delivers every message exactly
    // once, which is the delivery Execute performs.
    if (attempt_crashes == 0 && row_faults.drops == 0 && row_faults.duplicates == 0) break;

    // Faulty attempt: the recovery ledger is charged and the delivery is
    // retried with backoff.
    ++retries;
    crashes += attempt_crashes;
    rows_dropped += row_faults.drops;
    rows_duplicated += row_faults.duplicates;
    backoff_units += std::min(kBackoffBase << std::min<uint32_t>(attempt, 63), kBackoffCap);
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
       Ledger::Add("recovery.checkpoint_tuples", delivery.PreExchangeRows()),
       Ledger::Max("recovery.max_single_resend", max_single_resend),
       faulted ? Ledger::Sample("recovery.attempts_per_exchange", kAttemptBounds,
                                static_cast<double>(retries + 1))
               : Ledger::Series("recovery.attempts_per_exchange", kAttemptBounds),
       faulted ? Ledger::Sample("recovery.resent_per_faulted_exchange", kResentBounds,
                                static_cast<double>(tuples_resent))
               : Ledger::Series("recovery.resent_per_faulted_exchange", kResentBounds)});
}

}  // namespace resilience
}  // namespace coverpack
