#ifndef PDS2_CRYPTO_ED25519_H_
#define PDS2_CRYPTO_ED25519_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/bignum.h"

namespace pds2::crypto {

/// Element of GF(2^255 - 19) in radix-2^51 representation (five 51-bit
/// limbs, curve25519-donna style). Operations keep limbs loosely reduced
/// (below 2^51 + 2^13); ToBytes and the comparisons reduce canonically.
class Fe25519 {
 public:
  /// Zero element.
  Fe25519() : limbs_{0, 0, 0, 0, 0} {}
  /// Small constant.
  static Fe25519 FromU64(uint64_t v);
  /// From 32 little-endian bytes (top bit ignored, per convention).
  static Fe25519 FromBytes(const common::Bytes& b);
  /// Canonical 32 little-endian bytes.
  common::Bytes ToBytes() const;

  static Fe25519 Add(const Fe25519& a, const Fe25519& b);
  static Fe25519 Sub(const Fe25519& a, const Fe25519& b);
  static Fe25519 Mul(const Fe25519& a, const Fe25519& b);
  /// a^2 with the cross products doubled: 15 limb multiplications against
  /// Mul's 25.
  static Fe25519 Square(const Fe25519& a);
  /// Multiplicative inverse via Fermat (x^(p-2)), computed with the
  /// standard 254-squaring / 11-multiplication addition chain; inverse of 0
  /// is 0.
  static Fe25519 Invert(const Fe25519& a);
  /// x^((p+3)/8), the square-root candidate exponentiation.
  static Fe25519 PowP38(const Fe25519& a);

  bool IsZero() const;
  bool Equals(const Fe25519& other) const;
  /// Least significant bit of the canonical representation ("sign" of x in
  /// Ed25519 conventions).
  bool IsNegative() const;

 private:
  /// One carry pass with the top carry folded back (2^255 = 19 mod p).
  void Carry();
  /// Limbs of the unique representative in [0, p).
  std::array<uint64_t, 5> Canonical() const;

  std::array<uint64_t, 5> limbs_;
};

struct EdKernels;

/// A point on edwards25519 (-x^2 + y^2 = 1 + d x^2 y^2) in extended
/// homogeneous coordinates (X : Y : Z : T), XY = ZT.
class EdPoint {
 public:
  /// Identity element (0, 1).
  static EdPoint Identity();
  /// The standard base point B (y = 4/5, even x), derived at first use by
  /// square-root recovery — no magic constants.
  static const EdPoint& Base();
  /// Order of the prime-order subgroup, l = 2^252 + 27742...8493.
  static const BigUint& GroupOrder();

  static EdPoint Add(const EdPoint& p, const EdPoint& q);
  static EdPoint Double(const EdPoint& p);
  /// -p = (-x, y).
  static EdPoint Negate(const EdPoint& p);
  /// k * p by width-5 wNAF over k's full bit length with the odd multiples
  /// p, 3p, ..., 15p: about one addition per six doublings. k is never
  /// reduced mod the group order, because a decoded point may carry a
  /// small-order (torsion) component. Variable time: the simulated
  /// adversary model does not include timing attacks on the simulator host.
  static EdPoint ScalarMul(const BigUint& k, const EdPoint& p);
  /// k * Base() from a fixed-base table of (1..8) * 16^i * B, i < 64, built
  /// once at first use (about 61 KB). B has prime order, so k is reduced
  /// mod the group order, then recoded into 64 signed radix-16 digits: one
  /// table addition per digit and no doublings.
  static EdPoint ScalarBaseMul(const BigUint& k);
  /// sum_i scalars[i] * points[i] via Pippenger's bucket method with
  /// signed window digits (2^(c-1) buckets per window, a negative digit
  /// adds the negated point) — the workhorse of batch signature
  /// verification, roughly an order of magnitude fewer point operations
  /// than independent ScalarMul calls at block-sized inputs. Scalars must
  /// be < 2^256 (callers pass values reduced mod the group order). Sizes
  /// must match.
  static EdPoint MultiScalarMul(const std::vector<BigUint>& scalars,
                                const std::vector<EdPoint>& points);

  /// Affine coordinates (x, y), each canonical.
  void ToAffine(Fe25519* x, Fe25519* y) const;
  /// 64-byte encoding: x(32 LE) || y(32 LE).
  common::Bytes Encode() const;
  /// Rejects encodings whose coordinates are not on the curve.
  static common::Result<EdPoint> Decode(const common::Bytes& enc);

  bool Equals(const EdPoint& other) const;
  bool IsIdentity() const { return Equals(Identity()); }

  /// True if (x, y) satisfies the curve equation.
  static bool OnCurve(const Fe25519& x, const Fe25519& y);

 private:
  // The internal coordinate systems and the scalar-multiplication kernels
  // live in ed25519.cc.
  friend struct EdKernels;

  EdPoint() = default;
  static EdPoint FromAffine(const Fe25519& x, const Fe25519& y);

  Fe25519 x_, y_, z_, t_;
};

}  // namespace pds2::crypto

#endif  // PDS2_CRYPTO_ED25519_H_
