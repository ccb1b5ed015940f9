#include "mpc/exchange.h"

#include <algorithm>
#include <atomic>
#include <string>

#include "util/audit.h"
#include "util/ledger.h"

namespace coverpack {
namespace mpc {

namespace {

/// The process-global interposer (resilience fault injection). Installed
/// and uninstalled only at quiescent points, so relaxed ordering suffices.
std::atomic<ExchangeInterposer*> g_interposer{nullptr};

}  // namespace

ExchangeInterposer* ExchangeInterposer::Install(ExchangeInterposer* interposer) {
  return g_interposer.exchange(interposer, std::memory_order_acq_rel);
}

ExchangeInterposer* ExchangeInterposer::Installed() {
  return g_interposer.load(std::memory_order_acquire);
}

ExchangeDelivery::ExchangeDelivery(const ExchangePlan& plan, const ExchangeSink& sink,
                                   uint32_t round, const char* label, bool charged)
    : plan_(&plan), round_(round), label_(label), charged_(charged) {
  // Resolve every destination exactly once, sum the pre-exchange sizes of
  // the distinct ones and the rows each receives from all sources (the
  // per-server counts AddSource kept), then reserve ahead for the delivery
  // once per destination.
  std::vector<std::pair<Relation*, uint64_t>> incoming;  // distinct destinations
  for (size_t src = 0; src < plan.sources_.size(); ++src) {
    const ExchangePlan::Source& source = plan.sources_[src];
    if (source.relation == nullptr) continue;
    CP_CHECK(sink != nullptr);
    for (const auto& routes : source.shard_routes) shards_.push_back({src, &routes});
    Target target;
    target.source_index = src;
    target.dests.assign(plan.num_servers_, nullptr);
    for (uint32_t s = 0; s < plan.num_servers_; ++s) {
      if (source.counts[s] == 0) continue;
      Relation* dest = sink(src, s);
      CP_CHECK(dest != nullptr);
      auto it = std::find_if(incoming.begin(), incoming.end(),
                             [dest](const auto& entry) { return entry.first == dest; });
      if (it == incoming.end()) {
        incoming.emplace_back(dest, source.counts[s]);
        pre_exchange_rows_ += dest->size();
      } else {
        it->second += source.counts[s];
      }
      target.dests[s] = dest;
    }
    targets_.push_back(std::move(target));
  }
  for (const auto& [dest, rows] : incoming) dest->Reserve(dest->size() + rows);
}

uint64_t ExchangeDelivery::Deliver() {
  // Replay routes in ascending (shard, route) order, with runs of
  // consecutive rows bound for the same server coalesced into one flat
  // AppendRows copy.
  uint64_t delivered = 0;
  for (const Target& target : targets_) {
    const ExchangePlan::Source& source = plan_->sources_[target.source_index];
    const uint32_t width = source.relation->width();
    const Value* base = source.relation->raw().data();
    for (const auto& routes : source.shard_routes) {
      const size_t n = routes.size();
      size_t k = 0;
      while (k < n) {
        const uint32_t server = routes[k].server;
        const size_t first_row = routes[k].row;
        size_t run = 1;
        while (k + run < n && routes[k + run].server == server &&
               routes[k + run].row == first_row + run) {
          ++run;
        }
        target.dests[server]->AppendRows(base + first_row * width, run);
        delivered += run;
        k += run;
      }
    }
  }
  return delivered;
}

ExchangeStats Exchange::Execute(Cluster* cluster, uint32_t round, const ExchangePlan& plan,
                                const ExchangeSink& sink, const char* label) {
  if (cluster != nullptr) CP_CHECK_LE(plan.num_servers_, cluster->p());
  ExchangeStats stats;
  stats.planned = plan.total_planned_;
  stats.max_receive = plan.MaxPlannedReceive();

  // Delivery, in the order AddSource planned the routes, which is
  // thread-count invariant. An installed interposer (resilience fault
  // injection) sees the delivery first, read-only.
  {
    ExchangeDelivery delivery(plan, sink, round, label, cluster != nullptr);
    if (ExchangeInterposer* interposer = ExchangeInterposer::Installed()) {
      interposer->Observe(delivery);
    }
    stats.delivered = delivery.Deliver();
  }
  CP_AUDIT_ONLY(audit::SimulatorAuditor::VerifyExchange(plan.recorded_planned_, stats.delivered,
                                                        label);)

  // Charging: exactly once per server for the round. Zero amounts are
  // skipped — a zero Add would still grow the tracker's round list, giving
  // a different tracker shape than a path that never charged.
  if (cluster != nullptr) {
    CP_AUDIT_ONLY(const uint64_t volume_before = cluster->tracker().TotalCommunication();)
    LoadTracker& tracker = cluster->tracker();
    for (uint32_t s = 0; s < plan.num_servers_; ++s) {
      const uint64_t amount = plan.PlannedReceive(s);
      if (amount == 0) continue;
      tracker.Add(round, s, amount);
      stats.charged += amount;
    }
    CP_AUDIT_EQ(stats.charged, plan.total_planned_);
    CP_AUDIT_ONLY(audit::SimulatorAuditor::VerifyConservation(
        volume_before, stats.charged, cluster->tracker().TotalCommunication(), label);)
  }

  // Telemetry: every key of the exchange.* namespace, per execution. The
  // fan-in skew is max over mean planned receive (1.0 = balanced), sampled
  // only for exchanges that moved data.
  static const std::vector<double> kTupleBounds = {1.0, 10.0, 100.0, 1000.0,
                                                   1e4, 1e5,  1e6,   1e7};
  static const std::vector<double> kSkewBounds = {1.0,  2.0,  4.0,  8.0,
                                                  16.0, 32.0, 64.0, 128.0};
  const std::string by_label = std::string("exchange.") + label;
  const double mean_receive = static_cast<double>(stats.planned) / plan.num_servers_;
  Ledger::Global().Record(
      {Ledger::Add("exchange.count", 1), Ledger::Add("exchange.tuples_moved", stats.planned),
       Ledger::Max("exchange.max_fanin", stats.max_receive),
       Ledger::Add(by_label + ".count", 1),
       Ledger::Add(by_label + ".tuples_moved", stats.planned),
       Ledger::Sample("exchange.tuples_per_exchange", kTupleBounds,
                      static_cast<double>(stats.planned)),
       stats.planned > 0 ? Ledger::Sample("exchange.fanin_skew", kSkewBounds,
                                          static_cast<double>(stats.max_receive) / mean_receive)
                         : Ledger::Series("exchange.fanin_skew", kSkewBounds)});
  return stats;
}

void ExchangeTelemetry::Reset() { Ledger::Global().Reset("exchange."); }

ExchangeTelemetrySnapshot ExchangeTelemetry::Snapshot() {
  const Metrics ledger = Ledger::Global().Read("exchange.");
  return {ledger.CounterValue("exchange.count"), ledger.CounterValue("exchange.tuples_moved")};
}

}  // namespace mpc
}  // namespace coverpack
