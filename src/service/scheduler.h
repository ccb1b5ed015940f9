/// \file scheduler.h
/// \brief Deterministic scheduling primitives for the query service.
///
/// Two pieces, both purely simulated-time (no wall clock anywhere):
///
///  * LeaseManager — carves the p-server pool into disjoint sub-clusters.
///    First-fit over a coalesced free-interval map: acquisition order
///    fully determines placement, so lease assignments are bit-identical
///    across runs and thread counts. Optionally speed-aware: with a
///    per-server speed vector installed, leases can be granted in
///    speed-capacity units (AcquireCapacity) — the minimal first-fit
///    prefix whose speed sum covers the request — which collapses to
///    Acquire(ceil(capacity)) under uniform unit speeds.
///  * SimEventQueue — a min-heap of (tick, sequence) events driving the
///    discrete-event loop. The sequence number breaks same-tick ties in
///    push order, which the service keeps deterministic.

#ifndef COVERPACK_SERVICE_SCHEDULER_H_
#define COVERPACK_SERVICE_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <queue>
#include <vector>

namespace coverpack {
namespace service {

/// A disjoint sub-cluster [first_server, first_server + size) of the pool.
struct SubClusterLease {
  uint32_t first_server = 0;
  uint32_t size = 0;
};

/// First-fit allocator of disjoint server ranges.
class LeaseManager {
 public:
  explicit LeaseManager(uint32_t total_servers);

  /// Leases the lowest-addressed free range of `size` servers, or nullopt
  /// when no contiguous range fits.
  std::optional<SubClusterLease> Acquire(uint32_t size);

  /// Leases the lowest-addressed free range whose speed sum reaches
  /// `capacity` using the fewest servers of that range's prefix — i.e.
  /// first-fit over intervals, minimal prefix within the interval. With
  /// no (or uniform 1.0) speeds installed this grants exactly the same
  /// ranges as Acquire(ceil(capacity)). Returns nullopt when no single
  /// free interval holds enough aggregate speed.
  std::optional<SubClusterLease> AcquireCapacity(double capacity);

  /// Returns a lease's servers to the pool (coalescing with neighbors).
  void Release(const SubClusterLease& lease);

  /// Installs per-server speeds (size must equal total_servers(), all
  /// > 0); an empty vector restores uniform unit speeds. Only legal while
  /// nothing is leased, so outstanding capacity accounting stays exact.
  void SetSpeeds(std::vector<double> speeds);

  /// Speed of one server (1.0 when no speed vector is installed).
  double SpeedOf(uint32_t server) const;

  /// Aggregate speed of a lease's servers.
  double CapacityOf(const SubClusterLease& lease) const;

  uint32_t total_servers() const { return total_; }
  uint32_t leased() const { return leased_; }
  uint32_t peak_leased() const { return peak_; }
  double leased_capacity() const { return leased_capacity_; }
  double peak_capacity() const { return peak_capacity_; }

 private:
  /// Carves [start, start + size) out of the free interval at `it` (which
  /// must start there and be at least `size` long) and books the lease.
  SubClusterLease Carve(std::map<uint32_t, uint32_t>::iterator it, uint32_t size);

  uint32_t total_;
  uint32_t leased_ = 0;
  uint32_t peak_ = 0;
  double leased_capacity_ = 0.0;
  double peak_capacity_ = 0.0;
  std::vector<double> speeds_;         // empty = uniform 1.0
  std::map<uint32_t, uint32_t> free_;  // start -> length, disjoint + coalesced
};

/// What a simulation event announces.
enum class SimEventKind : uint8_t {
  kArrival,     ///< a client issued a query
  kCompletion,  ///< a running query's simulated latency elapsed
};

/// One scheduled event of the discrete-event loop.
struct SimEvent {
  uint64_t time = 0;  ///< simulated tick
  uint64_t seq = 0;   ///< tie-break, assigned by the queue in push order
  SimEventKind kind = SimEventKind::kArrival;
  uint32_t client = 0;
  uint32_t catalog_index = 0;
  uint64_t query_id = 0;
};

/// Min-heap over (time, seq). Deterministic for a deterministic push order.
class SimEventQueue {
 public:
  void Push(SimEvent event);  // stamps event.seq
  bool empty() const { return heap_.empty(); }
  const SimEvent& Top() const { return heap_.top(); }
  SimEvent PopMin();

 private:
  struct Later {
    bool operator()(const SimEvent& a, const SimEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<SimEvent, std::vector<SimEvent>, Later> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace service
}  // namespace coverpack

#endif  // COVERPACK_SERVICE_SCHEDULER_H_
