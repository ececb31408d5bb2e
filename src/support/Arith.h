//===- support/Arith.h - ClightX integer arithmetic -------------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ClightX `int` arithmetic with CompCert-style modular 64-bit semantics:
/// `+`, `-`, `*` and negation wrap in two's complement, `INT64_MIN / -1`
/// is INT64_MIN and `INT64_MIN % -1` is 0.  The reference interpreter, the
/// LAsm VM and the optimizer's constant folding all compute through these
/// helpers, so the three agree by definition instead of by whatever a C++
/// compiler makes of signed overflow.  Division by zero is not defined
/// here: every caller traps on a zero divisor before dividing.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_SUPPORT_ARITH_H
#define CCAL_SUPPORT_ARITH_H

#include <cstdint>

namespace ccal {

inline std::int64_t wrapAdd(std::int64_t A, std::int64_t B) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(A) +
                                   static_cast<std::uint64_t>(B));
}

inline std::int64_t wrapSub(std::int64_t A, std::int64_t B) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(A) -
                                   static_cast<std::uint64_t>(B));
}

inline std::int64_t wrapMul(std::int64_t A, std::int64_t B) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(A) *
                                   static_cast<std::uint64_t>(B));
}

inline std::int64_t wrapNeg(std::int64_t A) { return wrapSub(0, A); }

/// Truncating division; \p B must be nonzero.
inline std::int64_t wrapDiv(std::int64_t A, std::int64_t B) {
  return B == -1 ? wrapNeg(A) : A / B;
}

/// Remainder with the sign of \p A; \p B must be nonzero.
inline std::int64_t wrapMod(std::int64_t A, std::int64_t B) {
  return B == -1 ? 0 : A % B;
}

} // namespace ccal

#endif // CCAL_SUPPORT_ARITH_H
