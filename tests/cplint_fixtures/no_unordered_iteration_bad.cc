// cplint fixture: range-for over unordered containers.
#include <unordered_map>
#include <unordered_set>
#include <vector>

long Sum(const std::unordered_map<int, long>& unused) {
  std::unordered_map<int, long> counts;
  long total = 0;
  for (const auto& [key, value] : counts) total += value;
  return total;
}

std::vector<unsigned> ActiveSlots() {
  std::unordered_set<unsigned> members{0, 1, 2, 3};
  std::vector<unsigned> active;
  for (unsigned slot : members) active.push_back(slot);
  return active;
}
