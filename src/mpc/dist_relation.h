/// \file dist_relation.h
/// \brief A relation partitioned across the servers of a Cluster.

#ifndef COVERPACK_MPC_DIST_RELATION_H_
#define COVERPACK_MPC_DIST_RELATION_H_

#include <vector>

#include "mpc/cluster.h"
#include "relation/relation.h"

namespace coverpack {

/// One shard per server of a cluster. Shards share the schema.
class DistRelation {
 public:
  DistRelation() = default;

  /// Empty shards over `attrs` for a cluster of p servers.
  DistRelation(AttrSet attrs, uint32_t p) : attrs_(attrs), shards_(p, Relation(attrs)) {}

  AttrSet attrs() const { return attrs_; }
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  Relation& shard(uint32_t s) { return shards_[s]; }
  const Relation& shard(uint32_t s) const { return shards_[s]; }

  size_t TotalSize() const {
    size_t total = 0;
    for (const auto& shard : shards_) total += shard.size();
    return total;
  }

  /// Collects all shards into one relation (driver-side; no load charged —
  /// use only for verification or statistics the paper computes with
  /// dedicated O(N/p) primitives).
  Relation Gather() const {
    Relation all(attrs_);
    all.Reserve(TotalSize());
    for (const auto& shard : shards_) all.AppendAll(shard);
    return all;
  }

  /// Distributes `data` round-robin over the cluster, charging each server
  /// its received tuple count in `round`. This is how fresh (sub)instances
  /// arrive at the server group responsible for them.
  static DistRelation Scatter(Cluster* cluster, const Relation& data, uint32_t round);

  /// Like Scatter but charges nothing: models the *initial* placement of
  /// the input (data starts distributed; only communication counts).
  static DistRelation InitialPlacement(const Cluster& cluster, const Relation& data);

 private:
  AttrSet attrs_;
  std::vector<Relation> shards_;
};

}  // namespace coverpack

#endif  // COVERPACK_MPC_DIST_RELATION_H_
