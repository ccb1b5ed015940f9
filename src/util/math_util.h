/// \file math_util.h
/// \brief Small numeric helpers shared by the planner, the join counters
/// and the benchmarks.

#ifndef COVERPACK_UTIL_MATH_UTIL_H_
#define COVERPACK_UTIL_MATH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace coverpack {

/// ceil(a / b) for positive integers.
inline uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

/// min(a + b, cap) without overflow, for b <= cap (a may exceed cap).
inline uint64_t SaturatingAdd(uint64_t a, uint64_t b, uint64_t cap = UINT64_MAX) {
  return a > cap - std::min(b, cap) ? cap : a + b;
}

/// min(a * b, cap) without overflow.
inline uint64_t SaturatingMul(uint64_t a, uint64_t b, uint64_t cap = UINT64_MAX) {
  if (a == 0 || b == 0) return 0;
  return a > cap / b ? cap : a * b;
}

/// Integer power with saturation at UINT64_MAX.
uint64_t SaturatingPow(uint64_t base, uint32_t exp);

/// ceil(x^(1/k)) computed by integer binary search (no floating point drift).
/// k must be >= 1.
uint64_t CeilNthRoot(uint64_t x, uint32_t k);

/// floor(x^(1/k)) computed by integer binary search. k must be >= 1.
uint64_t FloorNthRoot(uint64_t x, uint32_t k);

/// Result of a least-squares fit of log(y) = slope * log(x) + intercept.
struct PowerLawFit {
  double slope = 0.0;      ///< Fitted exponent.
  double intercept = 0.0;  ///< Fitted log-constant.
  double r_squared = 0.0;  ///< Goodness of fit.
};

/// Fits y ~ C * x^slope on log-log scale. Points with nonpositive
/// coordinates are skipped; requires at least two usable points.
PowerLawFit FitPowerLaw(const std::vector<double>& xs, const std::vector<double>& ys);

}  // namespace coverpack

#endif  // COVERPACK_UTIL_MATH_UTIL_H_
