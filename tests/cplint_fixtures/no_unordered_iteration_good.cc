// cplint fixture: ordered iteration patterns that must stay quiet —
// a vector range-for, a classic indexed for over an unordered map's
// size, lookups without iteration, and a structured-binding loop over
// an ordered std::map.
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

long Sum(const std::unordered_map<int, long>& counts) {
  std::vector<int> keys;
  for (int key : keys) (void)key;
  for (size_t i = 0; i < keys.size(); ++i) (void)i;
  return static_cast<long>(counts.size());
}

std::string BestOrder() {
  std::map<unsigned long, std::string> memo;
  std::string best;
  for (const auto& [subset, order] : memo) {
    if (best.empty() || order < best) best = order;
  }
  return best;
}
