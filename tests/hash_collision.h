/// \file hash_collision.h
/// \brief Two distinct two-column keys with one 64-bit HashRowKey, for the
/// tests that hold the hash joins to key equality under a collision.
///
/// MixHash is bijective (xorshift-by-33 is an involution for 64-bit words,
/// and both multipliers are odd), so single-column keys cannot collide and a
/// genuine collision needs two columns. We invert MixHash with the modular
/// inverses of the Murmur3 multipliers and solve
///   HashCombine(s_a, a1) == HashCombine(s_b, b1)
/// for b1 given everything else — yielding two distinct (v0, v1) keys whose
/// full 64-bit HashRowKey values are equal.

#ifndef COVERPACK_TESTS_HASH_COLLISION_H_
#define COVERPACK_TESTS_HASH_COLLISION_H_

#include <cstdint>

#include "relation/relation.h"
#include "util/hash.h"

namespace coverpack {
namespace testutil {

inline uint64_t ModInverse64(uint64_t m) {
  uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - m * inv;  // Newton iteration mod 2^64
  return inv;
}

inline uint64_t InverseMixHash(uint64_t y) {
  y ^= y >> 33;
  y *= ModInverse64(0xC4CEB9FE1A85EC53ull);
  y ^= y >> 33;
  y *= ModInverse64(0xFF51AFD7ED558CCDull);
  y ^= y >> 33;
  return y;
}

/// Returns two distinct two-column keys with identical HashRowKey.
inline void CraftCollidingKeys(Value out_a[2], Value out_b[2]) {
  constexpr uint64_t kFnv = 0xCBF29CE484222325ull;
  constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ull;
  const Value a0 = 17, a1 = 42, b0 = 99;  // arbitrary, a0 != b0
  uint64_t s_a = HashCombine(kFnv, a0);
  uint64_t s_b = HashCombine(kFnv, b0);
  uint64_t target = HashCombine(s_a, a1);
  // HashCombine(s, v) = s ^ (MixHash(v) + kGolden + (s<<6) + (s>>2)).
  uint64_t mix_b1 = (s_b ^ target) - kGolden - (s_b << 6) - (s_b >> 2);
  Value b1 = InverseMixHash(mix_b1);
  out_a[0] = a0;
  out_a[1] = a1;
  out_b[0] = b0;
  out_b[1] = b1;
}

}  // namespace testutil
}  // namespace coverpack

#endif  // COVERPACK_TESTS_HASH_COLLISION_H_
