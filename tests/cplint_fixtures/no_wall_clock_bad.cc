// cplint fixture: wall-clock reads that would leak into reports.
#include <chrono>
#include <ctime>

long Stamp() {
  auto now = std::chrono::system_clock::now();
  (void)now;
  return time(nullptr);
}

// A monotonic read on the next line must not hide the wall-clock one.
long SlotSpeedSeed(unsigned slot) {
  const long ticks = std::chrono::steady_clock::now().time_since_epoch().count();
  return ticks + slot + time(nullptr);
}
