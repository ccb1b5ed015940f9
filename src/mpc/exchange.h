/// \file exchange.h
/// \brief The unified inter-server data-movement layer of the simulator.
///
/// Every load bound in the paper is a statement about *communication* —
/// what each server receives per round — so the simulator funnels all
/// inter-server data movement through this single choke point. One place
/// charges the LoadTracker, one place audits conservation, one place emits
/// telemetry, and one place owns the copy discipline; a future backend
/// (real sockets, compressed messages, a byte-cost model) is a change to
/// this file, not to five call sites.
///
/// An exchange is two-phase:
///
///  1. **Plan** — an ExchangePlan accumulates what every destination server
///     will receive: routed relation rows (AddSource with a pluggable
///     route function, evaluated shard-parallel on the global ThreadPool
///     with a thread-count-invariant shard decomposition), uniform
///     broadcast / O(N/p)-linear charges (PlanBroadcast / PlanLinear), or
///     explicit per-server receive volumes computed elsewhere
///     (PlanReceive). Routed sources either *record* their (server, row)
///     routes for delivery or only count receives (charge-only routing,
///     used when the simulation needs the load but not the data).
///  2. **Execute** — delivers every recorded route into its destination
///     relation via the sink callback, then charges the cluster's tracker
///     **exactly once per server** for the round. Each destination grows
///     once, by every row it receives; each route shard then fills its
///     slice of each destination it feeds, shard-parallel on the global
///     ThreadPool. The slices lie in (source, shard) order, so every
///     destination receives its rows in the deterministic (source, shard,
///     row, emit) order at any thread count, also when several servers or
///     sources share it. Consecutive rows bound for one destination go as
///     one flat copy.
///
/// In COVERPACK_AUDIT builds Execute verifies the conservation invariant
/// at the choke point: tuples planned == tuples delivered == load charged
/// for the round. Every execution also records into the run ledger's
/// `exchange.*` namespace (tuples moved, fan-in, skew; see util/ledger.h),
/// which the bench harness adds to each experiment's RunReport metrics.
///
/// Which paper primitive each call site models is catalogued in DESIGN.md
/// ("The Exchange layer").

#ifndef COVERPACK_MPC_EXCHANGE_H_
#define COVERPACK_MPC_EXCHANGE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "mpc/cluster.h"
#include "relation/relation.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/thread_pool.h"

namespace coverpack {
namespace mpc {

/// Rows per routing shard of the plan phase. Fixed (never derived from the
/// thread count) so the shard decomposition — and therefore every record
/// and merge order — is identical at any parallelism level.
inline constexpr size_t kExchangeRouteGrain = 2048;

/// What one Execute call did. `planned` covers the whole plan (routed rows
/// plus uniform/explicit charges); `delivered` counts only rows that
/// materialized into destination relations; `charged` is the tracker
/// volume (zero when executed without a cluster).
struct ExchangeStats {
  uint64_t planned = 0;
  uint64_t delivered = 0;
  uint64_t charged = 0;
  uint64_t max_receive = 0;  ///< max planned receive of any single server
};

/// Phase 1: the deterministic row -> server routing of one exchange.
class ExchangePlan {
 public:
  /// An empty plan over `num_servers` destination servers.
  explicit ExchangePlan(uint32_t num_servers) : num_servers_(num_servers) {
    CP_CHECK_GE(num_servers, 1u);
  }

  uint32_t num_servers() const { return num_servers_; }

  /// Routes `source` through the pluggable route function:
  /// `route(i, emit)` must call `emit(server)` for every server that is to
  /// receive row i, deterministically (replication = multiple emits). The
  /// route function is evaluated shard-parallel over fixed-size shards;
  /// shard results merge in ascending shard order, so the planned routing
  /// is byte-identical at any thread count. With `record` set the
  /// (server, row) routes are kept and Execute delivers the rows; without
  /// it only per-server receive counts accumulate (charge-only routing).
  /// `emits_per_row_hint` pre-sizes the route buffers (e.g. the hypercube
  /// replication factor). Returns the source index sinks are keyed by.
  template <typename RouteFn>
  size_t AddSource(const Relation& source, bool record, const RouteFn& route,
                   size_t emits_per_row_hint = 1);

  /// Plans a broadcast: every server receives `data_size` tuples.
  void PlanBroadcast(uint64_t data_size) {
    uniform_per_server_ += data_size;
    total_planned_ += data_size * num_servers_;
  }

  /// Plans one round of an O(N/p) sort-based primitive over `total_items`
  /// items: every server receives ceil(total_items / p).
  void PlanLinear(uint64_t total_items) {
    if (total_items == 0) return;
    uint64_t per_server = CeilDiv(total_items, num_servers_);
    uniform_per_server_ += per_server;
    total_planned_ += per_server * num_servers_;
  }

  /// Plans an explicit receive of `amount` tuples by `server`, on top of
  /// whatever routing planned for it. Amounts accumulate.
  void PlanReceive(uint32_t server, uint64_t amount) {
    CP_CHECK_LT(server, num_servers_);
    if (amount == 0) return;
    EnsureReceives();
    receives_[server] += amount;
    total_planned_ += amount;
  }

  /// Planned receive volume of one server.
  uint64_t PlannedReceive(uint32_t server) const {
    return uniform_per_server_ + (receives_.empty() ? 0 : receives_[server]);
  }

  /// Total volume this plan will charge.
  uint64_t total_planned() const { return total_planned_; }

  /// Volume of recorded routes (what Execute will actually deliver).
  uint64_t recorded_planned() const { return recorded_planned_; }

  /// Max planned receive over all servers.
  uint64_t MaxPlannedReceive() const {
    if (receives_.empty()) return uniform_per_server_;
    uint64_t max_receive = 0;
    for (uint64_t r : receives_) max_receive = std::max(max_receive, r);
    return max_receive + uniform_per_server_;
  }

  size_t num_sources() const { return sources_.size(); }

 private:
  friend class Exchange;
  friend class ExchangeDelivery;

  /// One (server, row) route of a recorded source.
  struct Route {
    uint32_t server;
    size_t row;
  };

  /// The routes one shard sends one server.
  struct ServerCount {
    uint32_t server;
    uint64_t count;
  };

  /// One routed source relation. `relation` is null for charge-only
  /// sources (their routes were counted, not recorded).
  struct Source {
    const Relation* relation = nullptr;
    std::vector<std::vector<Route>> shard_routes;  // ascending shard order
    /// Per shard, the servers its routes reach, ascending, with their
    /// counts: at most one entry per route. Empty for a one-shard source,
    /// whose only shard's counts are `counts`.
    std::vector<std::vector<ServerCount>> shard_counts;
    std::vector<uint64_t> counts;  ///< recorded routes per server; empty when charge-only
  };

  void EnsureReceives() {
    if (receives_.empty()) receives_.assign(num_servers_, 0);
  }

  /// The nonzero entries of a shard's per-server route counts.
  static std::vector<ServerCount> NonzeroCounts(const std::vector<uint64_t>& counts);

  uint32_t num_servers_;
  uint64_t uniform_per_server_ = 0;  ///< broadcast/linear component, per server
  std::vector<uint64_t> receives_;   ///< routed + explicit component; empty = all zero
  uint64_t total_planned_ = 0;
  uint64_t recorded_planned_ = 0;
  std::vector<Source> sources_;
};

/// Phase 2 destination lookup: sink(source_index, server) returns the
/// relation that server's rows of that source are delivered into.
using ExchangeSink = std::function<Relation*(size_t, uint32_t)>;

/// The delivery of one Execute call. Destinations are resolved through the
/// sink exactly once, at construction, which also reserves each one's exact
/// final capacity; Execute then performs the one sharded delivery. Before
/// it does, an installed interposer gets the const view: the plan, the
/// exchange's coordinates, every route in delivery order (whole, or shard
/// by shard for a parallel walk), and the destinations' pre-exchange
/// sizes. No row is written before the delivery, so the destinations still
/// hold only those pre-exchange rows.
class ExchangeDelivery {
 public:
  uint32_t round() const { return round_; }
  const char* label() const { return label_; }
  const ExchangePlan& plan() const { return *plan_; }
  /// False for uncharged executions (null cluster: initial placement) —
  /// such moves model free data birth, not communication, so fault
  /// injection skips them.
  bool charged() const { return charged_; }

  /// Rows the destination relations hold before this exchange, each
  /// destination counted once however many sources or servers share it:
  /// the volume a round-boundary snapshot of the destinations covers.
  uint64_t PreExchangeRows() const { return pre_exchange_rows_; }

  /// The recorded routes as a sequence of route shards: every recorded
  /// source's fixed kExchangeRouteGrain routing shards, source by source, in
  /// delivery order. The decomposition depends only on the plan, never on
  /// the thread count, so a walk that tallies each shard on its own (e.g.
  /// in a ParallelFor) and merges the tallies in shard order gets the
  /// serial walk's result at any parallelism level.
  size_t NumRouteShards() const { return shards_.size(); }

  /// Read-only walk over route shard `k` < NumRouteShards(), in delivery
  /// order: calls `visit(source, server, row)` once per routed row. Every
  /// route of a shard comes from the same source.
  template <typename VisitFn>
  void ForEachRouteInShard(size_t k, const VisitFn& visit) const {
    const RouteShard& shard = shards_[k];
    for (const ExchangePlan::Route& r : *shard.routes) visit(shard.source_index, r.server, r.row);
  }

  /// Read-only walk over every recorded route, in the deterministic
  /// (source, shard, row, emit) order Execute delivers them: the route
  /// shards in order, each walked with ForEachRouteInShard.
  template <typename VisitFn>
  void ForEachRoute(const VisitFn& visit) const {
    for (size_t k = 0; k < shards_.size(); ++k) ForEachRouteInShard(k, visit);
  }

 private:
  friend class Exchange;

  ExchangeDelivery(const ExchangePlan& plan, const ExchangeSink& sink, uint32_t round,
                   const char* label, bool charged);

  /// Appends every recorded route to its destination: grows each
  /// destination once, places each (route shard, destination) slice at the
  /// rows that destination takes from earlier shards, then fills the slices
  /// shard-parallel. Returns the rows delivered.
  uint64_t Deliver();

  /// One distinct destination relation and the rows it receives from all
  /// sources.
  struct Destination {
    Relation* relation;
    uint32_t width;
    uint64_t rows;
  };

  /// One routing shard of a recorded source: `shard` indexes its source's
  /// shard_routes and shard_counts.
  struct RouteShard {
    size_t source_index;
    size_t shard;
    const std::vector<ExchangePlan::Route>* routes;
  };

  /// Calls visit(server, count) for every server route shard `k` reaches.
  template <typename VisitFn>
  void ForEachShardCount(size_t k, const VisitFn& visit) const;

  const ExchangePlan* plan_;
  uint32_t round_;
  const char* label_;
  bool charged_;
  std::vector<Destination> dests_;  ///< distinct destinations, in first-resolved order
  /// Per source, per server: the index in dests_ of the relation the sink
  /// resolved, kNoDestination where the source routes nothing. Empty for
  /// charge-only sources.
  std::vector<std::vector<uint32_t>> dest_of_;
  std::vector<RouteShard> shards_;  ///< the route shard view, in delivery order
  uint64_t pre_exchange_rows_ = 0;

  static constexpr uint32_t kNoDestination = ~uint32_t{0};
};

/// Read-only hook of the Exchange layer: when installed, every Execute
/// shows its delivery to the interposer just before delivering it. The
/// resilience layer's FaultInjector uses this to decide crashes, message
/// drops and duplications, and to price their recovery, without any
/// algorithm knowing. The interposer cannot write a row: Execute always
/// performs the one clean delivery itself, so the conservation audit and
/// the tracker charging see the fault-free volumes by construction.
class ExchangeInterposer {
 public:
  virtual ~ExchangeInterposer() = default;

  /// Called once per Execute, before any row of `delivery` is written.
  /// May run concurrently for concurrent exchanges.
  virtual void Observe(const ExchangeDelivery& delivery) = 0;

  /// Installs `interposer` process-wide (nullptr uninstalls) and returns
  /// the previously installed one, so scoped installers can nest. Install
  /// only from quiescent points — never while exchanges are executing.
  static ExchangeInterposer* Install(ExchangeInterposer* interposer);
  static ExchangeInterposer* Installed();
};

/// Phase 2: executes a plan.
class Exchange {
 public:
  /// Single-source plan sugar: routes `source` over `num_servers` in one
  /// call. See ExchangePlan::AddSource for the route-function contract.
  template <typename RouteFn>
  static ExchangePlan Plan(uint32_t num_servers, const Relation& source, const RouteFn& route,
                           bool record = true, size_t emits_per_row_hint = 1) {
    ExchangePlan plan(num_servers);
    plan.AddSource(source, record, route, emits_per_row_hint);
    return plan;
  }

  /// Performs the planned move: delivers every recorded source through
  /// `sink` and charges `cluster`'s tracker once per server in `round`.
  /// `cluster` may be null — deliver without charging, which models the
  /// *initial* placement of the input (data starts distributed; only
  /// communication counts). `label` names the exchange in audit failures
  /// and telemetry. Requires plan.num_servers() <= cluster->p().
  static ExchangeStats Execute(Cluster* cluster, uint32_t round, const ExchangePlan& plan,
                               const ExchangeSink& sink, const char* label);

  /// Charge-only execution (no recorded sources to deliver).
  static ExchangeStats Execute(Cluster* cluster, uint32_t round, const ExchangePlan& plan,
                               const char* label) {
    return Execute(cluster, round, plan, ExchangeSink(), label);
  }
};

/// What the perf probes (bench/perf/probes.cc) read of the ledger's
/// `exchange.*` namespace. Everything else reads the ledger by name.
struct ExchangeTelemetrySnapshot {
  uint64_t count = 0;         ///< exchanges executed
  uint64_t tuples_moved = 0;  ///< total planned volume over all exchanges
};

/// Read view over the ledger's `exchange.*` namespace, kept for the perf
/// probes only.
class ExchangeTelemetry {
 public:
  /// Drops the `exchange.*` namespace.
  static void Reset();
  static ExchangeTelemetrySnapshot Snapshot();
};

// ---- template implementation ----------------------------------------------

template <typename RouteFn>
size_t ExchangePlan::AddSource(const Relation& source, bool record, const RouteFn& route,
                               size_t emits_per_row_hint) {
  const size_t rows = source.size();
  Source entry;
  if (record) {
    entry.relation = &source;
    entry.counts.assign(num_servers_, 0);
  }
  if (rows > 0) {
    const size_t num_shards = ThreadPool::NumShards(0, rows, kExchangeRouteGrain);
    ThreadPool& pool = ThreadPool::Global();
    if (record) {
      // Each shard counts its routes per server as it records them: a
      // one-shard source straight into `counts`, any other shard into a
      // scratch array it then keeps only the nonzero servers of.
      entry.shard_routes.resize(num_shards);
      if (num_shards > 1) entry.shard_counts.resize(num_shards);
      pool.ParallelForShards(0, rows, kExchangeRouteGrain,
                             [&](size_t shard_begin, size_t shard_end, size_t shard) {
                               shard_end = std::min(shard_end, rows);
                               auto& routes = entry.shard_routes[shard];
                               routes.reserve((shard_end - shard_begin) * emits_per_row_hint);
                               std::vector<uint64_t> scratch;
                               if (num_shards > 1) scratch.assign(num_servers_, 0);
                               std::vector<uint64_t>& counts =
                                   num_shards > 1 ? scratch : entry.counts;
                               for (size_t i = shard_begin; i < shard_end; ++i) {
                                 route(i, [&](uint64_t server) {
                                   CP_DCHECK(server < num_servers_);
                                   routes.push_back(Route{static_cast<uint32_t>(server), i});
                                   ++counts[server];
                                 });
                               }
                               if (num_shards > 1) {
                                 entry.shard_counts[shard] = NonzeroCounts(scratch);
                               }
                             });
      for (const auto& routes : entry.shard_routes) {
        total_planned_ += routes.size();
        recorded_planned_ += routes.size();
      }
      for (const auto& shard_counts : entry.shard_counts) {
        for (const ServerCount& c : shard_counts) entry.counts[c.server] += c.count;
      }
      EnsureReceives();
      for (uint32_t s = 0; s < num_servers_; ++s) receives_[s] += entry.counts[s];
    } else {
      // Charge-only routing: per-shard receive-count arrays, merged in
      // ascending shard order (sums are order-independent, but the fixed
      // order keeps this path structurally identical to the recorded one).
      std::vector<std::vector<uint64_t>> shard_counts(num_shards);
      pool.ParallelForShards(0, rows, kExchangeRouteGrain,
                             [&](size_t shard_begin, size_t shard_end, size_t shard) {
                               shard_end = std::min(shard_end, rows);
                               auto& local = shard_counts[shard];
                               local.assign(num_servers_, 0);
                               for (size_t i = shard_begin; i < shard_end; ++i) {
                                 route(i, [&](uint64_t server) { ++local[server]; });
                               }
                             });
      EnsureReceives();
      for (const auto& local : shard_counts) {
        for (uint32_t s = 0; s < num_servers_; ++s) {
          receives_[s] += local[s];
          total_planned_ += local[s];
        }
      }
    }
  }
  sources_.push_back(std::move(entry));
  return sources_.size() - 1;
}

}  // namespace mpc
}  // namespace coverpack

#endif  // COVERPACK_MPC_EXCHANGE_H_
