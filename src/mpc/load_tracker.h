/// \file load_tracker.h
/// \brief Per-round, per-server load accounting for the MPC simulator.
///
/// The complexity measure of the MPC model is the *load* L: the maximum
/// number of tuples received by any server in any round (Section 1.2).
/// Every communication primitive in the simulator records its receives
/// here; the benches read MaxLoad() and NumRounds() off this tracker and
/// compare them against the paper's bounds.

#ifndef COVERPACK_MPC_LOAD_TRACKER_H_
#define COVERPACK_MPC_LOAD_TRACKER_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace coverpack {

/// A matrix of received-message counts indexed by (round, server).
class LoadTracker {
 public:
  explicit LoadTracker(uint32_t num_servers);

  uint32_t num_servers() const { return num_servers_; }
  uint32_t num_rounds() const { return static_cast<uint32_t>(rounds_.size()); }

  /// Records `amount` tuples received by `server` in `round`. Rounds grow
  /// on demand.
  void Add(uint32_t round, uint32_t server, uint64_t amount);

  /// Load of one (round, server) cell; zero if the round does not exist.
  uint64_t At(uint32_t round, uint32_t server) const;

  /// The MPC load L: max over all rounds and servers.
  uint64_t MaxLoad() const;

  /// Maximum load of a specific round.
  uint64_t MaxLoadOfRound(uint32_t round) const;

  /// Total communication volume (sum over all cells).
  uint64_t TotalCommunication() const;

  /// Per-server loads of one round (num_servers() entries, zeros included).
  /// The round must exist. Read-only view for the telemetry profiler.
  const std::vector<uint64_t>& RoundLoads(uint32_t round) const;

  /// Sum of one round's row; zero if the round does not exist.
  uint64_t TotalOfRound(uint32_t round) const;

  /// Mean load of one round over *all* servers (busy or not); zero if the
  /// round does not exist.
  double MeanLoadOfRound(uint32_t round) const;

  /// Merges a child tracker that ran on a contiguous sub-range of this
  /// tracker's servers, starting at `server_offset`, with its round 0
  /// aligned to `round_offset` here.
  void Merge(const LoadTracker& child, uint32_t server_offset, uint32_t round_offset);

  /// Merges a child tracker through an arbitrary child-server -> set of
  /// physical servers mapping: child server c's loads are added to every
  /// physical server s with map(s) == c. Used for the Case II hypercube
  /// grid, where the run of component i on p_i logical servers is
  /// replicated across the other grid dimensions.
  void MergeMapped(const LoadTracker& child, uint32_t round_offset,
                   const std::function<uint32_t(uint32_t)>& physical_to_child);

  /// Same server count, same rounds and every cell equal. A round only one
  /// side has differs even when all its cells are zero.
  bool operator==(const LoadTracker& other) const = default;

 private:
  uint32_t num_servers_;
  std::vector<std::vector<uint64_t>> rounds_;
};

}  // namespace coverpack

#endif  // COVERPACK_MPC_LOAD_TRACKER_H_
