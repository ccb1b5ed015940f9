#include "service/scheduler.h"

#include <algorithm>

#include "util/logging.h"

namespace coverpack {
namespace service {

LeaseManager::LeaseManager(uint32_t total_servers) : total_(total_servers) {
  CP_CHECK(total_ > 0);
  free_[0] = total_;
}

std::optional<SubClusterLease> LeaseManager::Acquire(uint32_t size) {
  CP_CHECK(size > 0);
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->second < size) continue;
    SubClusterLease lease{it->first, size};
    const uint32_t remaining = it->second - size;
    free_.erase(it);
    if (remaining > 0) free_[lease.first_server + size] = remaining;
    leased_ += size;
    peak_ = std::max(peak_, leased_);
    return lease;
  }
  return std::nullopt;
}

void LeaseManager::Release(const SubClusterLease& lease) {
  CP_CHECK(lease.size > 0);
  CP_CHECK_LE(lease.first_server + lease.size, total_);
  CP_CHECK_LE(lease.size, leased_);
  uint32_t start = lease.first_server;
  uint32_t length = lease.size;
  // Coalesce with the successor interval, then with the predecessor.
  auto next = free_.lower_bound(start);
  if (next != free_.end() && next->first == start + length) {
    length += next->second;
    free_.erase(next);
  }
  if (!free_.empty()) {
    auto prev = free_.lower_bound(start);
    if (prev != free_.begin()) {
      --prev;
      if (prev->first + prev->second == start) {
        start = prev->first;
        length += prev->second;
        free_.erase(prev);
      }
    }
  }
  free_[start] = length;
  leased_ -= lease.size;
}

void SimEventQueue::Push(SimEvent event) {
  event.seq = next_seq_++;
  heap_.push(event);
}

SimEvent SimEventQueue::PopMin() {
  CP_CHECK(!heap_.empty());
  SimEvent event = heap_.top();
  heap_.pop();
  return event;
}

}  // namespace service
}  // namespace coverpack
