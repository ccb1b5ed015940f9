#include "mpc/exchange.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <unordered_map>

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

std::vector<ExchangePlan::ServerCount> ExchangePlan::NonzeroCounts(
    const std::vector<uint64_t>& counts) {
  const size_t nonzero = counts.size() - std::count(counts.begin(), counts.end(), uint64_t{0});
  std::vector<ServerCount> kept;
  kept.reserve(nonzero);
  for (uint32_t s = 0; s < counts.size(); ++s) {
    if (counts[s] != 0) kept.push_back(ServerCount{s, counts[s]});
  }
  return kept;
}

ExchangeDelivery::ExchangeDelivery(const ExchangePlan& plan, const ExchangeSink& sink,
                                   uint32_t round, const char* label, bool charged)
    : plan_(&plan), round_(round), label_(label), charged_(charged) {
  // Resolve every destination exactly once, sum the pre-exchange sizes of
  // the distinct ones and the rows each receives from all sources (the
  // per-server counts AddSource kept), then reserve ahead for the delivery
  // once per destination.
  std::unordered_map<const Relation*, uint32_t> index_of;  // distinct destinations
  index_of.reserve(plan.num_servers_);
  dest_of_.resize(plan.sources_.size());
  for (size_t src = 0; src < plan.sources_.size(); ++src) {
    const ExchangePlan::Source& source = plan.sources_[src];
    if (source.relation == nullptr) continue;
    CP_CHECK(sink != nullptr);
    for (size_t k = 0; k < source.shard_routes.size(); ++k) {
      shards_.push_back({src, k, &source.shard_routes[k]});
    }
    std::vector<uint32_t>& dest_of = dest_of_[src];
    dest_of.assign(plan.num_servers_, kNoDestination);
    for (uint32_t s = 0; s < plan.num_servers_; ++s) {
      if (source.counts[s] == 0) continue;
      Relation* dest = sink(src, s);
      CP_CHECK(dest != nullptr);
      CP_CHECK_EQ(dest->width(), source.relation->width());
      const auto [it, inserted] =
          index_of.try_emplace(dest, static_cast<uint32_t>(dests_.size()));
      if (inserted) {
        dests_.push_back(Destination{dest, dest->width(), 0});
        pre_exchange_rows_ += dest->size();
      }
      dests_[it->second].rows += source.counts[s];
      dest_of[s] = it->second;
    }
  }
  for (const Destination& dest : dests_) {
    dest.relation->Reserve(dest.relation->size() + dest.rows);
  }
}

template <typename VisitFn>
void ExchangeDelivery::ForEachShardCount(size_t k, const VisitFn& visit) const {
  const RouteShard& shard = shards_[k];
  const ExchangePlan::Source& source = plan_->sources_[shard.source_index];
  if (source.shard_counts.empty()) {
    for (uint32_t s = 0; s < plan_->num_servers_; ++s) {
      if (source.counts[s] != 0) visit(s, source.counts[s]);
    }
    return;
  }
  for (const ExchangePlan::ServerCount& c : source.shard_counts[shard.shard]) {
    visit(c.server, c.count);
  }
}

uint64_t ExchangeDelivery::Deliver() {
  // Grow every destination once, by all the rows it receives.
  std::vector<Value*> next_free(dests_.size());
  for (size_t d = 0; d < dests_.size(); ++d) {
    next_free[d] = dests_[d].relation->AppendUninitialized(dests_[d].rows);
  }

  // Lay the (route shard, destination) slices out in delivery order: a
  // shard's slice of a destination starts where the earlier shards' slices
  // of it end, and holds the routes of every server of the shard's source
  // that the destination serves.
  struct Slice {
    uint32_t dest;
    Value* begin;
    uint64_t rows;
  };
  constexpr size_t kNoSlice = ~size_t{0};
  std::vector<Slice> slices;
  std::vector<size_t> first_slice(shards_.size() + 1);
  std::vector<size_t> slice_of(dests_.size(), kNoSlice);  // latest slice of each destination
  uint64_t delivered = 0;
  for (size_t k = 0; k < shards_.size(); ++k) {
    first_slice[k] = slices.size();
    delivered += shards_[k].routes->size();
    const std::vector<uint32_t>& dest_of = dest_of_[shards_[k].source_index];
    ForEachShardCount(k, [&](uint32_t server, uint64_t count) {
      const uint32_t d = dest_of[server];
      if (slice_of[d] == kNoSlice || slice_of[d] < first_slice[k]) {
        slice_of[d] = slices.size();
        slices.push_back(Slice{d, next_free[d], 0});
      }
      slices[slice_of[d]].rows += count;
      next_free[d] += count * dests_[d].width;
    });
  }
  first_slice[shards_.size()] = slices.size();

  // Fill the slices, one route shard per task. A shard checks before each
  // copy that the copy fits its slice, and at the end that it filled it.
  ThreadPool::Global().ParallelFor(0, shards_.size(), 1, [&](size_t k) {
    const RouteShard& shard = shards_[k];
    const Relation& source = *plan_->sources_[shard.source_index].relation;
    const std::vector<uint32_t>& dest_of = dest_of_[shard.source_index];
    const uint32_t width = source.width();
    const Value* base = source.raw().data();
    struct Cursor {
      Value* next = nullptr;
      uint64_t room = 0;
    };
    std::vector<Cursor> cursor(dests_.size());
    for (size_t j = first_slice[k]; j < first_slice[k + 1]; ++j) {
      cursor[slices[j].dest] = Cursor{slices[j].begin, slices[j].rows};
    }
    const std::vector<ExchangePlan::Route>& routes = *shard.routes;
    const size_t n = routes.size();
    size_t i = 0;
    while (i < n) {
      const uint32_t d = dest_of[routes[i].server];
      const size_t first_row = routes[i].row;
      size_t run = 1;
      while (i + run < n && dest_of[routes[i + run].server] == d &&
             routes[i + run].row == first_row + run) {
        ++run;
      }
      Cursor& to = cursor[d];
      CP_CHECK(run <= to.room) << "exchange " << label_ << " overruns a delivery slice";
      if (width != 0) {
        std::memcpy(to.next, base + first_row * width, run * width * sizeof(Value));
      }
      to.next += run * width;
      to.room -= run;
      i += run;
    }
    for (size_t j = first_slice[k]; j < first_slice[k + 1]; ++j) {
      CP_CHECK_EQ(cursor[slices[j].dest].room, 0u)
          << "exchange " << label_ << " left a slice unfilled";
    }
  });
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
