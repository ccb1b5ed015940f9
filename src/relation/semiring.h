/// \file semiring.h
/// \brief The commutative semirings the join-tree message pass runs over.
///
/// A semiring type names its element type `Weight` and provides static
/// Zero() (the identity of Add, absorbing for Mul), One() (the identity of
/// Mul), Add (⊕: combines alternative join results) and Mul (⊗: composes the
/// tuples of one result). The message pass (relation/message_pass.h) takes
/// the semiring as a template parameter, so its counting instance compiles
/// to a plain saturating multiply-add.

#ifndef COVERPACK_RELATION_SEMIRING_H_
#define COVERPACK_RELATION_SEMIRING_H_

#include <algorithm>
#include <cstdint>
#include <limits>

#include "util/math_util.h"

namespace coverpack {

/// (ℕ, +, ×) saturating at UINT64_MAX: COUNT and SUM.
struct CountingSemiring {
  using Weight = uint64_t;
  static Weight Zero() { return 0; }
  static Weight One() { return 1; }
  static Weight Add(Weight a, Weight b) { return SaturatingAdd(a, b); }
  static Weight Mul(Weight a, Weight b) { return SaturatingMul(a, b); }
};

/// (min, +) with UINT64_MAX as infinity: the lightest join result.
struct TropicalSemiring {
  using Weight = uint64_t;
  static Weight Zero() { return std::numeric_limits<Weight>::max(); }
  static Weight One() { return 0; }
  static Weight Add(Weight a, Weight b) { return std::min(a, b); }
  static Weight Mul(Weight a, Weight b) { return SaturatingAdd(a, b); }
};

/// The ring ℤ/2^64 (wrapping + and ×): the result digest's arithmetic.
struct WrappingSemiring {
  using Weight = uint64_t;
  static Weight Zero() { return 0; }
  static Weight One() { return 1; }
  static Weight Add(Weight a, Weight b) { return a + b; }
  static Weight Mul(Weight a, Weight b) { return a * b; }
};

}  // namespace coverpack

#endif  // COVERPACK_RELATION_SEMIRING_H_
