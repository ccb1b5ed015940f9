#include "util/math_util.h"

#include <cmath>

#include "util/logging.h"

namespace coverpack {

uint64_t SaturatingPow(uint64_t base, uint32_t exp) {
  uint64_t result = 1;
  for (uint32_t i = 0; i < exp && result != UINT64_MAX; ++i) result = SaturatingMul(result, base);
  return result;
}

uint64_t FloorNthRoot(uint64_t x, uint32_t k) {
  CP_CHECK_GE(k, 1u);
  if (k == 1 || x <= 1) return x;
  uint64_t lo = 0;
  uint64_t hi = x;
  // Invariant: lo^k <= x < (hi+1)^k.
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo + 1) / 2;
    if (SaturatingPow(mid, k) <= x) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

uint64_t CeilNthRoot(uint64_t x, uint32_t k) {
  const uint64_t root = FloorNthRoot(x, k);
  if (SaturatingPow(root, k) == x) return root;
  return root + 1;
}

PowerLawFit FitPowerLaw(const std::vector<double>& xs, const std::vector<double>& ys) {
  CP_CHECK_EQ(xs.size(), ys.size());
  std::vector<double> lx;
  std::vector<double> ly;
  lx.reserve(xs.size());
  ly.reserve(ys.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] > 0 && ys[i] > 0) {
      lx.push_back(std::log(xs[i]));
      ly.push_back(std::log(ys[i]));
    }
  }
  CP_CHECK_GE(lx.size(), 2u) << "power-law fit needs at least two positive points";
  const double n = static_cast<double>(lx.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (size_t i = 0; i < lx.size(); ++i) {
    sx += lx[i];
    sy += ly[i];
    sxx += lx[i] * lx[i];
    sxy += lx[i] * ly[i];
    syy += ly[i] * ly[i];
  }
  PowerLawFit fit;
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) return fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0.0;
  for (size_t i = 0; i < lx.size(); ++i) {
    const double pred = fit.slope * lx[i] + fit.intercept;
    ss_res += (ly[i] - pred) * (ly[i] - pred);
  }
  fit.r_squared = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

}  // namespace coverpack
