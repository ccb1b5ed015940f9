#include "mpc/dist_relation.h"

#include "mpc/exchange.h"

namespace coverpack {

namespace {

/// Round-robin delivery of `data` into fresh shards. Models the paper's
/// "evenly distributed" starting condition: server i % p receives row i.
DistRelation RoundRobinExchange(Cluster* cluster, const Relation& data, uint32_t round,
                                uint32_t p, const char* label) {
  DistRelation dist(data.attrs(), p);
  mpc::ExchangePlan plan = mpc::Exchange::Plan(
      p, data, [p](size_t i, auto emit) { emit(i % p); });
  mpc::Exchange::Execute(cluster, round, plan,
                         [&dist](size_t, uint32_t server) { return &dist.shard(server); },
                         label);
  return dist;
}

}  // namespace

DistRelation DistRelation::Scatter(Cluster* cluster, const Relation& data, uint32_t round) {
  return RoundRobinExchange(cluster, data, round, cluster->p(), "scatter");
}

DistRelation DistRelation::InitialPlacement(const Cluster& cluster, const Relation& data) {
  return RoundRobinExchange(nullptr, data, 0, cluster.p(), "initial_placement");
}

}  // namespace coverpack
