// cplint fixture: ambient randomness sources.
#include <random>

int Draw() {
  std::random_device rd;
  std::mt19937 gen;
  return static_cast<int>(gen() + rd());
}
unsigned long Draw64() {
  std::mt19937_64 gen;
  return gen();
}
int Legacy() { return rand(); }
