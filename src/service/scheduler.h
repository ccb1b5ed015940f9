/// \file scheduler.h
/// \brief Deterministic scheduling primitives for the query service.
///
/// Two pieces, both purely simulated-time (no wall clock anywhere):
///
///  * LeaseManager — carves the p-server pool into disjoint sub-clusters.
///    First-fit over a coalesced free-interval map: acquisition order
///    fully determines placement, so lease assignments are bit-identical
///    across runs and thread counts.
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

  /// Returns a lease's servers to the pool (coalescing with neighbors).
  void Release(const SubClusterLease& lease);

  uint32_t total_servers() const { return total_; }
  uint32_t leased() const { return leased_; }
  uint32_t peak_leased() const { return peak_; }

 private:
  uint32_t total_;
  uint32_t leased_ = 0;
  uint32_t peak_ = 0;
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
