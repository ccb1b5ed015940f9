// cplint fixture: monotonic timing only, a simulated tick clock, and
// identifiers that merely contain clock-ish substrings (runtime() etc.)
// must not trip the rule.
#include <chrono>
#include <cstdint>

long Elapsed() {
  auto start = std::chrono::steady_clock::now();
  auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::milliseconds>(stop - start).count();
}
long runtime() { return 0; }
long Total() { return runtime(); }

// Latency on a uint64 tick axis: a pure function of event timestamps.
struct SimClock {
  uint64_t now_ticks = 0;
  void AdvanceTo(uint64_t t) {
    if (t > now_ticks) now_ticks = t;
  }
};
uint64_t QueryLatency(const SimClock& clock, uint64_t admitted_at_ticks) {
  return clock.now_ticks - admitted_at_ticks;
}
