// Fixed-width 256-bit integers and modular arithmetic.
//
// This is the arithmetic substrate for the NIST P-256 curve (src/crypto/p256)
// and for the prime-field Shamir secret sharing of §4.2.  `ModField`
// implements Montgomery multiplication for any odd 256-bit modulus.
//
// NOTE on timing: the default entry points (Add/Sub/Mul/MontMul/Inv/...) are
// variable-time and serve the public- and ephemeral-scalar fast paths.  A
// parallel constant-time lane (`AddCt`, `SubCt`, `NegCt`, `MontMulCt`,
// `MontSqrCt`, `MontInvCt`, `ReduceOnceCt`) computes bit-identical results
// with no secret-dependent branches or early exits; everything operating on
// `Secret<U256>` data must stay on it.  See src/crypto/ct.h and
// docs/constant-time.md for the policy.
#ifndef PROCHLO_SRC_CRYPTO_BIGNUM_H_
#define PROCHLO_SRC_CRYPTO_BIGNUM_H_

#include <array>
#include <compare>
#include <cstdint>
#include <string>

#include "src/util/bytes.h"

namespace prochlo {

// Unsigned 256-bit integer, little-endian 64-bit limbs.
struct U256 {
  std::array<uint64_t, 4> limbs = {0, 0, 0, 0};

  static U256 Zero() { return U256{}; }
  static U256 One() { return U256{{1, 0, 0, 0}}; }
  static U256 FromU64(uint64_t v) { return U256{{v, 0, 0, 0}}; }

  // Big-endian 32-byte conversion (the standard wire form for P-256).
  static U256 FromBytes(ByteSpan be32);
  std::array<uint8_t, 32> ToBytes() const;

  // Big-endian hex (no 0x prefix); accepts up to 64 hex digits.
  static U256 FromHex(const std::string& hex);
  std::string ToHex() const;

  bool IsZero() const { return (limbs[0] | limbs[1] | limbs[2] | limbs[3]) == 0; }
  bool IsOdd() const { return (limbs[0] & 1) != 0; }
  bool Bit(int i) const { return ((limbs[i / 64] >> (i % 64)) & 1) != 0; }
  // Index of highest set bit, or -1 for zero.
  int BitLength() const;

  bool operator==(const U256&) const = default;
  std::strong_ordering operator<=>(const U256& other) const;
};

// a + b, returning the carry-out.  Inline: these limb primitives sit under
// every field addition inside the curve formulas, where an out-of-line call
// costs as much as the arithmetic.
inline uint64_t AddWithCarry(const U256& a, const U256& b, U256* out) {
  uint64_t carry = 0;
  for (int i = 0; i < 4; ++i) {
    __uint128_t sum = static_cast<__uint128_t>(a.limbs[i]) + b.limbs[i] + carry;
    out->limbs[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  return carry;
}
// a - b, returning the borrow-out.
inline uint64_t SubWithBorrow(const U256& a, const U256& b, U256* out) {
  uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    __uint128_t diff = static_cast<__uint128_t>(a.limbs[i]) - b.limbs[i] - borrow;
    out->limbs[i] = static_cast<uint64_t>(diff);
    borrow = static_cast<uint64_t>((diff >> 64) & 1);
  }
  return borrow;
}
// Full 256x256 -> 512-bit product (little-endian 8 limbs).
std::array<uint64_t, 8> MulWide(const U256& a, const U256& b);
// Logical right shift by one bit.
inline U256 ShiftRight1(const U256& a) {
  U256 out;
  for (int i = 0; i < 4; ++i) {
    out.limbs[i] = a.limbs[i] >> 1;
    if (i < 3) {
      out.limbs[i] |= a.limbs[i + 1] << 63;
    }
  }
  return out;
}

// ------------------------------------------------- constant-time masks
//
// The branch-free select/compare primitives of the ct lane (src/crypto/ct.h
// holds the rest of it: Secret<T>, CtEq, CtTableLookup, the harness
// hooks).  They live here, next to U256, because the inline ct field ops
// of ModField below are built from them.
namespace ct {

// Optimization barrier: the compiler must treat `v` as an opaque value it
// cannot constant-fold, range-analyze, or re-branch on.  This is what stops
// a sufficiently clever optimizer from rewriting `b ^ (mask & (a ^ b))`
// back into the branch it replaced.
inline uint64_t ValueBarrier(uint64_t v) {
#if defined(__GNUC__) || defined(__clang__)
  __asm__("" : "+r"(v) : /* no inputs */ :);
#endif
  return v;
}

// All-ones when v != 0, all-zeros when v == 0.
inline uint64_t NonZeroMask(uint64_t v) {
  // (v | -v) has its top bit set iff v != 0; arithmetic negate of that bit
  // smears it across the word.
  return ValueBarrier(0 - ((v | (0 - v)) >> 63));
}

// All-ones when v == 0, all-zeros otherwise.
inline uint64_t IsZeroMask(uint64_t v) { return ~NonZeroMask(v); }

// All-ones when a == b.
inline uint64_t EqMask(uint64_t a, uint64_t b) { return IsZeroMask(a ^ b); }

// mask ? a : b, where mask is all-ones or all-zeros.
inline uint64_t CtSelect(uint64_t mask, uint64_t a, uint64_t b) {
  return b ^ (mask & (a ^ b));
}

// Conditionally exchanges a and b when mask is all-ones.
inline void CtSwap(uint64_t mask, uint64_t& a, uint64_t& b) {
  uint64_t t = mask & (a ^ b);
  a ^= t;
  b ^= t;
}

// ---------------------------------------------------------------- U256 forms

// All-ones when a == 0.
inline uint64_t IsZeroMask(const U256& a) {
  return IsZeroMask(a.limbs[0] | a.limbs[1] | a.limbs[2] | a.limbs[3]);
}

// All-ones when a == b (the constant-time replacement for U256::operator==,
// whose defaulted memberwise compare is free to short-circuit).
inline uint64_t EqMask(const U256& a, const U256& b) {
  return IsZeroMask(U256{{a.limbs[0] ^ b.limbs[0], a.limbs[1] ^ b.limbs[1],
                          a.limbs[2] ^ b.limbs[2], a.limbs[3] ^ b.limbs[3]}});
}

inline U256 CtSelect(uint64_t mask, const U256& a, const U256& b) {
  U256 out;
  for (int i = 0; i < 4; ++i) {
    out.limbs[i] = CtSelect(mask, a.limbs[i], b.limbs[i]);
  }
  return out;
}

inline void CtSwap(uint64_t mask, U256& a, U256& b) {
  for (int i = 0; i < 4; ++i) {
    CtSwap(mask, a.limbs[i], b.limbs[i]);
  }
}

}  // namespace ct

// Modular arithmetic for an odd 256-bit modulus, Montgomery-based.
// All public entry points take and return values in the *normal* domain.
class ModField {
 public:
  explicit ModField(const U256& modulus);

  const U256& modulus() const { return modulus_; }

  // Add/Sub/Neg are inline for the same reason as AddWithCarry: the point
  // formulas call them a dozen times per doubling.
  U256 Add(const U256& a, const U256& b) const {
    U256 sum;
    uint64_t carry = AddWithCarry(a, b, &sum);
    U256 reduced;
    uint64_t borrow = SubWithBorrow(sum, modulus_, &reduced);
    return (carry != 0 || borrow == 0) ? reduced : sum;
  }
  U256 Sub(const U256& a, const U256& b) const {
    U256 diff;
    uint64_t borrow = SubWithBorrow(a, b, &diff);
    if (borrow != 0) {
      U256 wrapped;
      AddWithCarry(diff, modulus_, &wrapped);
      return wrapped;
    }
    return diff;
  }
  U256 Neg(const U256& a) const {
    if (a.IsZero()) {
      return a;
    }
    U256 out;
    SubWithBorrow(modulus_, a, &out);
    return out;
  }
  U256 Mul(const U256& a, const U256& b) const;
  U256 Sqr(const U256& a) const { return Mul(a, a); }
  U256 Exp(const U256& base, const U256& exponent) const;
  // Inverse via binary extended GCD (modulus must be prime; returns 0 for
  // 0, matching the Fermat convention it replaced).
  U256 Inv(const U256& a) const;
  // Square root for primes p ≡ 3 (mod 4); returns false if `a` is a
  // non-residue.
  bool Sqrt(const U256& a, U256* root) const;

  // Simultaneous inversion (Montgomery's trick): replaces every nonzero
  // entry with its modular inverse at the cost of ONE field inversion plus
  // 3(n-1) multiplications, instead of n inversions.  Zero entries are left
  // untouched.  This is what makes batch affine conversion of elliptic-curve
  // points cheap (see P256::BatchNormalize).
  void BatchInv(U256* values, size_t n) const;
  // Montgomery-domain variant: entries and results are in the Montgomery
  // domain, and only MontMul is used for the products.
  void BatchInvMont(U256* values, size_t n) const;

  // Reduces an arbitrary 256-bit value into [0, modulus).
  U256 Reduce(const U256& a) const;
  // Reduces a 512-bit value (little-endian limbs) modulo the modulus.
  U256 ReduceWide(const std::array<uint64_t, 8>& wide) const;

  // Montgomery-domain primitives, exposed for hot loops (the P-256 point
  // arithmetic keeps coordinates in the Montgomery domain throughout a scalar
  // multiplication and converts only at the edges).  When the modulus is the
  // P-256 prime, both take a specialized path: the prime's sparse limbs
  // (2^256 - 2^224 + 2^192 + 2^96 - 1, with -p^{-1} = 1 mod 2^64) turn every
  // reduction round into two shifts and one multiplication by a constant,
  // and the reduction is branch-free, so the Ct twins below share it.
  U256 MontMul(const U256& a, const U256& b) const;
  // a*a, using the squaring schoolbook (the ~10-mul cross-term/diagonal
  // split) on the specialized path; identical result to MontMul(a, a).
  U256 MontSqr(const U256& a) const;
  U256 ToMont(const U256& a) const { return MontMul(a, r2_); }
  U256 FromMont(const U256& a) const { return MontMul(a, U256::One()); }

  // ------------------------------------------------- constant-time lane
  //
  // Bit-identical to the variable-time entry points above, but with no
  // secret-dependent branches, conditional moves, early-exit carry loops, or
  // data-dependent iteration counts: every select is an arithmetic mask
  // (ct:: above).  The additions are inline, like Add/Sub/Neg, because the
  // ct point formulas call them between every pair of multiplications; the
  // multiplications stay out of line.
  U256 AddCt(const U256& a, const U256& b) const {
    U256 sum;
    uint64_t carry = AddWithCarry(a, b, &sum);
    U256 reduced;
    uint64_t borrow = SubWithBorrow(sum, modulus_, &reduced);
    // Keep the reduced value iff the add overflowed 2^256 or sum >= modulus.
    return ct::CtSelect(ct::NonZeroMask(carry | (borrow ^ 1)), reduced, sum);
  }
  U256 SubCt(const U256& a, const U256& b) const {
    U256 diff;
    uint64_t borrow = SubWithBorrow(a, b, &diff);
    U256 wrapped;
    AddWithCarry(diff, modulus_, &wrapped);
    return ct::CtSelect(ct::NonZeroMask(borrow), wrapped, diff);
  }
  U256 NegCt(const U256& a) const {
    U256 out;
    SubWithBorrow(modulus_, a, &out);
    return ct::CtSelect(ct::IsZeroMask(a), a, out);
  }
  U256 MontMulCt(const U256& a, const U256& b) const;
  U256 MontSqrCt(const U256& a) const;
  U256 ToMontCt(const U256& a) const { return MontMulCt(a, r2_); }
  U256 FromMontCt(const U256& a) const { return MontMulCt(a, U256::One()); }
  // Montgomery-domain inverse via the Fermat ladder (modulus must be prime):
  // the exponent m-2 is public, so its bits may drive control flow; every
  // multiplication on the secret base uses the Ct primitives.  0 maps to 0.
  U256 MontInvCt(const U256& a_mont) const;
  // Reduces a < 2m into [0, m) with one masked subtract.
  U256 ReduceOnceCt(const U256& a) const;

 private:
  U256 modulus_;
  uint64_t n0_inv_;   // -modulus^{-1} mod 2^64
  U256 r2_;           // R^2 mod modulus, R = 2^256
  bool p256_fast_;    // modulus is the P-256 prime: fast reduction applies
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_CRYPTO_BIGNUM_H_
