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
///     relation via the sink callback, in deterministic (source, shard,
///     row, emit) order, with reserve-ahead bulk appends (consecutive rows
///     bound for the same server coalesce into one flat copy) instead of
///     per-row AppendRow calls — then charges the cluster's tracker
///     **exactly once per server** for the round.
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

  /// One routed source relation. `relation` is null for charge-only
  /// sources (their routes were counted, not recorded).
  struct Source {
    const Relation* relation = nullptr;
    std::vector<std::vector<Route>> shard_routes;  // ascending shard order
  };

  void EnsureReceives() {
    if (receives_.empty()) receives_.assign(num_servers_, 0);
  }

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

/// The delivery of one Execute call, reified so an interposer (the
/// resilience layer's FaultInjector) can drive it: run delivery attempts —
/// optionally corrupting them row by row — and roll the destinations back
/// to their pre-exchange checkpoint between attempts. Destinations are
/// resolved through the sink exactly once, at construction, so a
/// multi-attempt delivery observes the same relations a fault-free one
/// would; the checkpoint is each destination's row count at that moment
/// (destinations only grow by appends, so truncation restores them
/// bit-exactly).
class ExchangeDelivery {
 public:
  /// Verdict for one routed row of a corrupted attempt.
  enum class RowFate {
    kDeliver,    ///< deliver normally
    kDrop,       ///< lose the message (crashed or lossy receiver)
    kDuplicate,  ///< deliver twice (retransmission race)
  };

  /// Per-row corruption oracle of one attempt: the fate of row `row` of
  /// source `source` on its way to `server`. Called in the deterministic
  /// (source, shard, row, emit) delivery order, from one thread.
  using CorruptFn = std::function<RowFate(size_t source, uint32_t server, size_t row)>;

  uint32_t round() const { return round_; }
  const char* label() const { return label_; }
  const ExchangePlan& plan() const { return *plan_; }
  /// False for uncharged executions (null cluster: initial placement) —
  /// such moves model free data birth, not communication, so fault
  /// injection skips them.
  bool charged() const { return charged_; }

  /// Rows held by all destination relations at the pre-exchange
  /// checkpoint: the volume a round-boundary snapshot protects.
  uint64_t CheckpointedRows() const { return checkpointed_rows_; }

  /// Runs one clean delivery attempt (the fault-free fast path: coalesced
  /// bulk appends). Returns the rows delivered.
  uint64_t Attempt() { return RunAttempt(nullptr); }

  /// Runs one attempt under the corruption oracle. Returns the rows
  /// actually delivered (dropped rows excluded, duplicates counted twice).
  uint64_t Attempt(const CorruptFn& corrupt) { return RunAttempt(&corrupt); }

  /// Truncates every destination back to its pre-exchange checkpoint:
  /// restore-and-replay of the failed round.
  void Restore();

  /// Read-only walk over every recorded route, in the deterministic
  /// (source, shard, row, emit) order an attempt delivers them: calls
  /// `visit(source, server, row)` once per routed row and writes nothing,
  /// so an interposer can decide an attempt's fate before any row lands.
  template <typename VisitFn>
  void ForEachRoute(const VisitFn& visit) const {
    for (const Target& target : targets_) {
      for (const auto& routes : plan_->sources_[target.source_index].shard_routes) {
        for (const ExchangePlan::Route& r : routes) visit(target.source_index, r.server, r.row);
      }
    }
  }

 private:
  friend class Exchange;

  ExchangeDelivery(const ExchangePlan& plan, const ExchangeSink& sink, uint32_t round,
                   const char* label, bool charged);

  uint64_t RunAttempt(const CorruptFn* corrupt);

  /// Destination state of one recorded source.
  struct Target {
    size_t source_index;
    std::vector<uint64_t> counts;    ///< planned rows per server
    std::vector<Relation*> dests;    ///< resolved once; null where counts == 0
  };

  /// Pre-exchange size of one (unique) destination relation.
  struct Checkpoint {
    Relation* relation;
    size_t rows;
  };

  const ExchangePlan* plan_;
  uint32_t round_;
  const char* label_;
  bool charged_;
  std::vector<Target> targets_;
  std::vector<Checkpoint> checkpoints_;
  uint64_t checkpointed_rows_ = 0;
};

/// Interposer seam of the Exchange layer: when installed, every Execute
/// hands its delivery to the interposer instead of performing the single
/// clean attempt itself. The resilience layer's FaultInjector uses this to
/// inject crashes, message drops/duplications, and round replays without
/// any algorithm knowing. The interposer MUST leave every destination in
/// the clean fault-free state (final attempt clean, earlier attempts rolled
/// back via Restore) — the conservation audit and the tracker charging run
/// after it returns, against the fault-free volumes.
class ExchangeInterposer {
 public:
  virtual ~ExchangeInterposer() = default;

  /// Drives the delivery of one exchange. Returns the rows delivered by
  /// the final (clean) attempt — must equal plan().recorded_planned().
  virtual uint64_t Deliver(ExchangeDelivery& delivery) = 0;

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
  if (record) entry.relation = &source;
  if (rows > 0) {
    const size_t num_shards = ThreadPool::NumShards(0, rows, kExchangeRouteGrain);
    ThreadPool& pool = ThreadPool::Global();
    if (record) {
      entry.shard_routes.resize(num_shards);
      pool.ParallelForShards(0, rows, kExchangeRouteGrain,
                             [&](size_t shard_begin, size_t shard_end, size_t shard) {
                               shard_end = std::min(shard_end, rows);
                               auto& routes = entry.shard_routes[shard];
                               routes.reserve((shard_end - shard_begin) * emits_per_row_hint);
                               for (size_t i = shard_begin; i < shard_end; ++i) {
                                 route(i, [&](uint64_t server) {
                                   routes.push_back(Route{static_cast<uint32_t>(server), i});
                                 });
                               }
                             });
      EnsureReceives();
      for (const auto& routes : entry.shard_routes) {
        for (const Route& r : routes) {
          CP_DCHECK(r.server < num_servers_);
          ++receives_[r.server];
        }
        total_planned_ += routes.size();
        recorded_planned_ += routes.size();
      }
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
