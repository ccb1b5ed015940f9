#include "mpc/primitives.h"

#include <algorithm>

#include "mpc/exchange.h"
#include "relation/join_index.h"
#include "relation/operators.h"
#include "util/arena.h"
#include "util/audit.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/thread_pool.h"

namespace coverpack {
namespace mpc {

namespace {

/// Plans the key-hash routing of `input` onto p servers: one routed source
/// per input shard, its routes recorded for delivery when `record` is set
/// and only counted otherwise.
ExchangePlan PlanHashPartition(const DistRelation& input, AttrSet key, uint32_t p,
                               bool record) {
  CP_CHECK(key.IsSubsetOf(input.attrs()));
  // Column ranks are schema-wide, identical across shards.
  const Relation schema(input.attrs());
  std::vector<uint32_t> cols;
  cols.reserve(key.size());
  for (AttrId attr : key.ToVector()) {
    cols.push_back(schema.ColumnOf(attr));
  }
  ExchangePlan plan(p);
  for (uint32_t s = 0; s < input.num_shards(); ++s) {
    const Relation& shard = input.shard(s);
    plan.AddSource(shard, record, [&shard, &cols, p](size_t i, auto emit) {
      emit(HashRowKey(shard.row(i).data(), cols.data(), cols.size()) % p);
    });
  }
  return plan;
}

}  // namespace

DistRelation HashPartition(Cluster* cluster, const DistRelation& input, AttrSet key,
                           uint32_t round) {
  DistRelation output(input.attrs(), cluster->p());
  // One Exchange with one routed source per input shard: the route hashing
  // runs shard-parallel inside the plan phase; Execute delivers in
  // ascending (input shard, row) order, so each output shard's row order
  // is byte-identical to the serial path. Charging and the conservation
  // audit (tuples planned == delivered == charged) happen at the Exchange
  // choke point.
  const ExchangePlan plan = PlanHashPartition(input, key, cluster->p(), /*record=*/true);
  const ExchangeStats stats = Exchange::Execute(
      cluster, round, plan,
      [&output](size_t, uint32_t server) { return &output.shard(server); }, "hash_partition");
  // Repartitioning may neither drop nor duplicate tuples.
  CP_AUDIT_ONLY(audit::SimulatorAuditor::VerifyExchange(input.TotalSize(), stats.delivered,
                                                        "HashPartition");)
  (void)stats;
  return output;
}

void ChargeHashPartition(Cluster* cluster, const DistRelation& input, AttrSet key,
                         uint32_t round) {
  Exchange::Execute(cluster, round,
                    PlanHashPartition(input, key, cluster->p(), /*record=*/false),
                    "hash_partition");
}

void ChargeBroadcast(Cluster* cluster, size_t data_size, uint32_t round) {
  if (data_size == 0) return;
  ExchangePlan plan(cluster->p());
  plan.PlanBroadcast(data_size);
  Exchange::Execute(cluster, round, plan, "broadcast");
}

void ChargeLinear(Cluster* cluster, uint64_t total_items, uint32_t round) {
  if (total_items == 0) return;
  ExchangePlan plan(cluster->p());
  plan.PlanLinear(total_items);
  Exchange::Execute(cluster, round, plan, "linear");
}

std::unordered_map<Value, uint64_t> DegreeByValue(Cluster* cluster, const DistRelation& input,
                                                  AttrId attr, uint32_t* round) {
  // Local pre-aggregation is free; the exchange of (value, count) pairs and
  // the final combine are two O(N/p) rounds of the sort-based reduce-by-key.
  // Per-shard aggregation runs in parallel as a column gather + sort +
  // run-length encode over the pool thread's scratch arena (no hash table,
  // no per-shard map allocations); the combine walks shards in ascending
  // order, and the merged map's content is insertion-order independent.
  std::unordered_map<Value, uint64_t> degrees;
  uint64_t pair_count = 0;
  std::vector<std::vector<std::pair<Value, uint64_t>>> locals(input.num_shards());
  ThreadPool::Global().ParallelFor(0, input.num_shards(), 1, [&](size_t s) {
    const Relation& shard = input.shard(static_cast<uint32_t>(s));
    if (shard.empty()) return;
    const size_t n = shard.size();
    const uint32_t width = shard.width();
    const Value* src = shard.raw().data() + shard.ColumnOf(attr);
    ArenaScope scope;
    Value* values = scope.arena()->AllocateArray<Value>(n);
    for (size_t i = 0; i < n; ++i) values[i] = src[i * width];
    std::sort(values, values + n);
    for (size_t i = 0; i < n;) {
      size_t run = i + 1;
      while (run < n && values[run] == values[i]) ++run;
      locals[s].emplace_back(values[i], run - i);
      i = run;
    }
  });
  for (uint32_t s = 0; s < input.num_shards(); ++s) {
    pair_count += locals[s].size();
    for (const auto& [value, count] : locals[s]) degrees[value] += count;
  }
  // Reduce-by-key conserves counts: the degrees of all values must sum to
  // exactly the number of input tuples.
  CP_AUDIT_ONLY(
      // Commutative sum for the conservation audit; order-independent.
      // cplint: allow(no-unordered-iteration)
      uint64_t degree_sum = 0; for (const auto& [value, count] : degrees) degree_sum += count;
      audit::SimulatorAuditor::VerifyExchange(input.TotalSize(), degree_sum,
                                              "DegreeByValue count conservation");)
  ChargeLinear(cluster, pair_count, *round);
  ChargeLinear(cluster, degrees.size(), *round + 1);
  *round += 2;
  return degrees;
}

DistRelation SemiJoinMpc(Cluster* cluster, const DistRelation& left, const DistRelation& right,
                         uint32_t* round) {
  AttrSet shared = left.attrs().Intersect(right.attrs());
  CP_CHECK(!shared.empty()) << "MPC semi-join requires a shared attribute";
  DistRelation left_parts = HashPartition(cluster, left, shared, *round);
  DistRelation right_parts = HashPartition(cluster, right, shared, *round);
  *round += 1;
  DistRelation output(left.attrs(), cluster->p());
  // One independent semi-join per server; each writes its own shard.
  ThreadPool::Global().ParallelFor(0, cluster->p(), 1, [&](size_t s) {
    uint32_t server = static_cast<uint32_t>(s);
    output.shard(server) = SemiJoin(left_parts.shard(server), right_parts.shard(server));
  });
  // A semi-join filters the left side; it can never grow it.
  CP_AUDIT_LE(output.TotalSize(), left.TotalSize());
  return output;
}

std::vector<uint32_t> ParallelPack(const std::vector<uint64_t>& weights, uint64_t capacity) {
  CP_CHECK_GT(capacity, 0u);
  // First-fit over descending weights gives bins in (capacity, 2*capacity]
  // except possibly the last — the guarantee of the [15] primitive.
  std::vector<size_t> order(weights.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return weights[a] > weights[b]; });
  std::vector<uint32_t> bin_of(weights.size(), 0);
  std::vector<uint64_t> bin_load;
  bin_load.reserve(weights.size());
  for (size_t i : order) {
    CP_CHECK_LE(weights[i], capacity) << "parallel-packing input exceeds capacity";
    bool placed = false;
    for (size_t b = 0; b < bin_load.size(); ++b) {
      if (bin_load[b] + weights[i] <= 2 * capacity && bin_load[b] < capacity) {
        bin_load[b] += weights[i];
        bin_of[i] = static_cast<uint32_t>(b);
        placed = true;
        break;
      }
    }
    if (!placed) {
      bin_load.push_back(weights[i]);
      bin_of[i] = static_cast<uint32_t>(bin_load.size() - 1);
    }
  }
  // The [15] guarantee this simulator charges for: no bin above 2*capacity,
  // at most one bin under capacity, and no weight lost or double-binned.
  CP_AUDIT_ONLY(
      uint64_t weight_sum = 0; for (uint64_t w : weights) weight_sum += w;
      uint64_t binned_sum = 0; uint32_t under_full = 0;
      for (uint64_t load : bin_load) {
        binned_sum += load;
        CP_CHECK_LE(load, 2 * capacity) << "parallel-packing bin overflows 2*capacity ";
        if (load < capacity) ++under_full;
      }
      CP_AUDIT_LE(under_full, 1u);
      audit::SimulatorAuditor::VerifyExchange(weight_sum, binned_sum,
                                              "ParallelPack weight conservation");)
  return bin_of;
}

}  // namespace mpc
}  // namespace coverpack
