/// \file cluster_profile.h
/// \brief A first-class, mutable description of the simulated fleet:
/// per-server speeds plus membership epochs.
///
/// The paper's MPC model assumes p identical servers. "Parallel Query
/// Processing with Heterogeneous Machines" (PAPERS.md) shows that load
/// shares proportional to server speed preserve the optimal-load exponent
/// on heterogeneous fleets, so this module turns the cost model from a
/// post-hoc simulation into a *placement policy* (DESIGN.md §4i):
///
///  * **Speeds** — every server slot has a speed, a pure function of the
///    SpeedSpec and the slot id (content-keyed, exactly like FaultPlan's
///    straggler schedule): two profiles built from equal specs agree on
///    every slot, at any thread count, with no stored state.
///  * **Epochs** — an ElasticSpec schedules servers joining/leaving at
///    round boundaries. The profile resolves the schedule into membership
///    epochs up front: joins activate the lowest inactive slot ids, leaves
///    deactivate the highest active ones, so the whole membership history
///    is deterministic given (base_p, schedule).
///
/// Nothing here touches relations or trackers; routing and migration live
/// in routing.h / elastic.h.

#ifndef COVERPACK_CLUSTER_CLUSTER_PROFILE_H_
#define COVERPACK_CLUSTER_CLUSTER_PROFILE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace coverpack {
namespace cluster {

/// How per-slot speeds are generated. Content-keyed: the speed of slot s
/// is a pure function of this spec and s.
struct SpeedSpec {
  enum class Kind : uint8_t {
    kUniform,    ///< every slot at speed 1
    kHalves,     ///< alternating slots at speed `param` / speed 1
    kGeometric,  ///< speeds spread geometrically in [1, param], period 8
    kSeeded,     ///< hash-random speeds in [1, 8), keyed by (seed, slot)
    kExplicit,   ///< explicit per-slot list, cycled over the slot space
  };

  Kind kind = Kind::kUniform;
  double param = 1.0;   ///< kHalves: fast speed; kGeometric: max speed
  uint64_t seed = 0;    ///< kSeeded: hash key
  std::vector<double> explicit_speeds;  ///< kExplicit only; all > 0

  /// Canonical flag-value form ("uniform", "halves:4", "1,2,4", ...).
  std::string ToString() const;
};

/// Parses a --speeds flag value: "uniform", "halves:<speed>",
/// "geom:<max>", "seeded:<seed>", or a comma list of positive speeds.
/// nullopt on malformed input.
std::optional<SpeedSpec> ParseSpeedSpec(const std::string& text);

/// One membership event: `delta` servers join (> 0) or leave (< 0) at the
/// boundary before `round` begins. Rounds are >= 1 (round 0 is the initial
/// membership).
struct ElasticEvent {
  uint32_t round = 0;
  int32_t delta = 0;
};

/// A join/leave schedule, sorted by round (one merged event per round).
struct ElasticSpec {
  std::vector<ElasticEvent> events;

  bool empty() const { return events.empty(); }
  /// Canonical flag-value form ("none", "+2@1,-1@3", ...).
  std::string ToString() const;
};

/// Parses an --elastic flag value: "none" or a comma list of
/// "+<k>@<round>" / "-<k>@<round>" events with round >= 1. nullopt on
/// malformed input.
std::optional<ElasticSpec> ParseElasticSpec(const std::string& text);

/// Membership of one epoch: the active slot ids, ascending, valid for
/// rounds [first_round, next epoch's first_round).
struct Epoch {
  uint32_t first_round = 0;
  std::vector<uint32_t> active;
};

/// The resolved fleet description. Immutable after construction; all
/// queries are pure, so profiles are safe to share across threads.
class ClusterProfile {
 public:
  /// Resolves `schedule` against an initial membership of slots
  /// [0, base_p). Leaves may never drop the fleet below one server.
  ClusterProfile(uint32_t base_p, const SpeedSpec& speeds, const ElasticSpec& schedule);

  uint32_t base_p() const { return base_p_; }
  /// Size of the slot id space: every slot that is ever active.
  uint32_t num_slots() const { return num_slots_; }
  const SpeedSpec& speed_spec() const { return speed_spec_; }
  const std::vector<Epoch>& epochs() const { return epochs_; }

  /// Raw (unnormalized) speed of one slot; > 0, pure in (spec, slot).
  double SpeedOfSlot(uint32_t slot) const;

  /// The epoch covering `round`.
  const Epoch& EpochForRound(uint32_t round) const;

  /// Raw speeds of an epoch's active slots, aligned with epoch.active.
  std::vector<double> ActiveSpeeds(const Epoch& epoch) const;

  /// Like ActiveSpeeds but scaled to mean 1, so makespans computed from
  /// different epochs (or different p) share one unit of work.
  std::vector<double> NormalizedActiveSpeeds(const Epoch& epoch) const;

  /// Deterministic identity of the whole profile: equal keys iff equal
  /// (base_p, speed spec, schedule). Mirrors FaultPlan's content keying.
  uint64_t ContentKey() const;

 private:
  uint32_t base_p_;
  uint32_t num_slots_;
  SpeedSpec speed_spec_;
  ElasticSpec schedule_;
  std::vector<Epoch> epochs_;
};

/// Largest-remainder apportionment: integer shares summing to
/// `total_units`, proportional to `weights` (all > 0), ties broken by
/// lower index. Deterministic; the workhorse behind speed-weighted
/// scatter targets, migration targets, and virtual-server placement.
std::vector<uint64_t> ProportionalShares(const std::vector<double>& weights,
                                         uint64_t total_units);

}  // namespace cluster
}  // namespace coverpack

#endif  // COVERPACK_CLUSTER_CLUSTER_PROFILE_H_
