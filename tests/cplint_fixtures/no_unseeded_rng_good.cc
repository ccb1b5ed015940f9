// cplint fixture: all randomness derives from the experiment seed.
#include <cstdint>
#include <random>

int Draw(uint64_t seed, uint32_t shard) {
  std::mt19937_64 gen(SplitSeed(seed, shard));
  return static_cast<int>(gen());
}
// Identifiers containing "rand" (operand, Random) must not trip the rule.
int operand(int x) { return x; }

// A SplitMix hash of an explicit seed needs no generator at all.
uint64_t SplitMix(uint64_t seed) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
uint64_t SampleRow(uint64_t seed, uint64_t num_rows) { return SplitMix(seed) % num_rows; }
