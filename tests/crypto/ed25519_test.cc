// Differential tests for the edwards25519 kernels: the fixed-base table,
// wNAF and Pippenger paths against a plain double-and-add reference that
// lives only here, and the field squaring / inversion chains against
// generic square-and-multiply.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "crypto/bignum.h"
#include "crypto/ed25519.h"

namespace pds2::crypto {
namespace {

using common::Bytes;
using common::Rng;

const BigUint& FieldPrime() {
  static const BigUint p = BigUint(1).ShiftLeft(255).Sub(BigUint(19));
  return p;
}

// a^e by MSB-first square-and-multiply.
Fe25519 FermatPow(const Fe25519& a, const BigUint& e) {
  Fe25519 r = Fe25519::FromU64(1);
  for (size_t i = e.BitLength(); i-- > 0;) {
    r = Fe25519::Mul(r, r);
    if (e.Bit(i)) r = Fe25519::Mul(r, a);
  }
  return r;
}

// k * p by MSB-first double-and-add: the reference every fast path must
// match, for any k (no reduction) and any curve point.
EdPoint RefScalarMul(const BigUint& k, const EdPoint& p) {
  EdPoint acc = EdPoint::Identity();
  for (size_t i = k.BitLength(); i-- > 0;) {
    acc = EdPoint::Double(acc);
    if (k.Bit(i)) acc = EdPoint::Add(acc, p);
  }
  return acc;
}

// A point of order 8, found by decoding: lift small y values to curve
// points, then l * Q keeps only Q's small-order component. About half of
// all y lift and half of those carry an order-8 component, so the search
// ends within a few tries; the identity comes back only if the field or
// point arithmetic is broken (and OrderEightPointHasOrderEight fails).
EdPoint OrderEightPoint() {
  const Fe25519 one = Fe25519::FromU64(1);
  const Fe25519 d = Fe25519::Mul(
      Fe25519::Sub(Fe25519(), Fe25519::FromU64(121665)),
      FermatPow(Fe25519::FromU64(121666), FieldPrime().Sub(BigUint(2))));
  const BigUint p38 = FieldPrime().Add(BigUint(3)).ShiftRight(3);
  const Fe25519 sqrt_m1 = FermatPow(Fe25519::FromU64(2),
                                    FieldPrime().Sub(BigUint(1)).ShiftRight(2));
  for (uint64_t y_small = 2; y_small < 100; ++y_small) {
    const Fe25519 y = Fe25519::FromU64(y_small);
    const Fe25519 yy = Fe25519::Mul(y, y);
    const Fe25519 u = Fe25519::Sub(yy, one);
    const Fe25519 v = Fe25519::Add(Fe25519::Mul(d, yy), one);
    const Fe25519 uv = Fe25519::Mul(
        u, FermatPow(v, FieldPrime().Sub(BigUint(2))));
    Fe25519 x = FermatPow(uv, p38);
    if (!Fe25519::Mul(x, x).Equals(uv)) x = Fe25519::Mul(x, sqrt_m1);
    if (!Fe25519::Mul(x, x).Equals(uv)) continue;  // y not on the curve
    Bytes enc = x.ToBytes();
    common::Append(enc, y.ToBytes());
    auto q = EdPoint::Decode(enc);
    if (!q.ok()) continue;
    const EdPoint t = RefScalarMul(EdPoint::GroupOrder(), *q);
    if (!RefScalarMul(BigUint(4), t).IsIdentity()) return t;
  }
  return EdPoint::Identity();
}

std::vector<BigUint> EdgeScalars() {
  const BigUint& l = EdPoint::GroupOrder();
  const BigUint one(1);
  return {BigUint(0),
          BigUint(1),
          BigUint(2),
          BigUint(15),
          BigUint(16),
          BigUint(17),
          l.Sub(one),
          l,
          l.Add(one),
          one.ShiftLeft(252),
          one.ShiftLeft(255).Sub(one),
          one.ShiftLeft(256).Sub(one)};
}

// 200 seeded scalars: full 256-bit, reduced mod l, and 128-bit (the batch
// verifier's coefficient size), in rotation.
std::vector<BigUint> RandomScalars(uint64_t seed) {
  Rng rng(seed);
  std::vector<BigUint> out;
  for (int i = 0; i < 200; ++i) {
    switch (i % 3) {
      case 0:
        out.push_back(BigUint::FromBytesBE(rng.NextBytes(32)));
        break;
      case 1:
        out.push_back(BigUint::RandomBelow(EdPoint::GroupOrder(), rng));
        break;
      default:
        out.push_back(BigUint::FromBytesBE(rng.NextBytes(16)));
        break;
    }
  }
  return out;
}

std::vector<BigUint> AllScalars(uint64_t seed) {
  std::vector<BigUint> out = EdgeScalars();
  for (BigUint& k : RandomScalars(seed)) out.push_back(std::move(k));
  return out;
}

Fe25519 RandomFe(Rng& rng) { return Fe25519::FromBytes(rng.NextBytes(32)); }

TEST(Fe25519KernelTest, SquareMatchesMul) {
  Rng rng(101);
  Fe25519 a = RandomFe(rng);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(Fe25519::Square(a).Equals(Fe25519::Mul(a, a))) << i;
    // Chain through sums and differences so loosely reduced limbs (not
    // just fresh FromBytes values) reach the kernels too.
    a = Fe25519::Sub(Fe25519::Add(Fe25519::Square(a), a), RandomFe(rng));
  }
}

TEST(Fe25519KernelTest, InvertMatchesFermat) {
  Rng rng(102);
  const BigUint p_minus_2 = FieldPrime().Sub(BigUint(2));
  for (int i = 0; i < 50; ++i) {
    const Fe25519 a = RandomFe(rng);
    const Fe25519 inv = Fe25519::Invert(a);
    EXPECT_TRUE(inv.Equals(FermatPow(a, p_minus_2))) << i;
    EXPECT_TRUE(Fe25519::Mul(a, inv).Equals(Fe25519::FromU64(1))) << i;
  }
  EXPECT_TRUE(Fe25519::Invert(Fe25519()).IsZero());
}

TEST(Fe25519KernelTest, InvertHandlesNonCanonicalInputs) {
  // Every 255-bit encoding of a value in [p, 2^255): p + j, j < 19.
  const BigUint p_minus_2 = FieldPrime().Sub(BigUint(2));
  for (int j = 0; j < 19; ++j) {
    Bytes enc(32, 0xff);
    enc[0] = static_cast<uint8_t>(0xed + j);
    enc[31] = 0x7f;
    const Fe25519 a = Fe25519::FromBytes(enc);
    EXPECT_TRUE(a.Equals(Fe25519::FromU64(static_cast<uint64_t>(j)))) << j;
    const Fe25519 inv = Fe25519::Invert(a);
    EXPECT_TRUE(inv.Equals(FermatPow(a, p_minus_2))) << j;
    EXPECT_EQ(inv.ToBytes(),
              Fe25519::Invert(Fe25519::FromU64(static_cast<uint64_t>(j)))
                  .ToBytes())
        << j;
    if (j > 0) {
      EXPECT_TRUE(Fe25519::Mul(a, inv).Equals(Fe25519::FromU64(1))) << j;
    }
  }
}

TEST(Fe25519KernelTest, PowP38MatchesFermat) {
  Rng rng(103);
  const BigUint p38 = FieldPrime().Add(BigUint(3)).ShiftRight(3);
  for (int i = 0; i < 20; ++i) {
    const Fe25519 a = RandomFe(rng);
    EXPECT_TRUE(Fe25519::PowP38(a).Equals(FermatPow(a, p38))) << i;
  }
}

TEST(Fe25519KernelTest, ComparisonsReduceCanonically) {
  // 2^255 - 1 = p + 18 and 18 are the same element.
  Bytes top(32, 0xff);
  top[31] = 0x7f;
  const Fe25519 a = Fe25519::FromBytes(top);
  EXPECT_TRUE(a.Equals(Fe25519::FromU64(18)));
  EXPECT_FALSE(a.IsZero());
  EXPECT_FALSE(a.IsNegative());  // 18 is even
  EXPECT_TRUE(Fe25519::FromU64(19).IsNegative());
  EXPECT_TRUE(Fe25519::Sub(a, Fe25519::FromU64(18)).IsZero());
}

TEST(EdPointKernelTest, OrderEightPointHasOrderEight) {
  const EdPoint t = OrderEightPoint();
  EXPECT_FALSE(RefScalarMul(BigUint(4), t).IsIdentity());
  EXPECT_TRUE(RefScalarMul(BigUint(8), t).IsIdentity());
}

TEST(EdPointKernelTest, ScalarBaseMulMatchesReference) {
  const std::vector<BigUint> scalars = AllScalars(201);
  for (size_t i = 0; i < scalars.size(); ++i) {
    EXPECT_TRUE(EdPoint::ScalarBaseMul(scalars[i])
                    .Equals(RefScalarMul(scalars[i], EdPoint::Base())))
        << scalars[i].ToHex();
  }
}

TEST(EdPointKernelTest, ScalarMulMatchesReferenceOnPrimeOrderPoint) {
  Rng rng(202);
  const EdPoint p = RefScalarMul(
      BigUint::RandomBelow(EdPoint::GroupOrder(), rng), EdPoint::Base());
  const std::vector<BigUint> scalars = AllScalars(203);
  for (const BigUint& k : scalars) {
    EXPECT_TRUE(EdPoint::ScalarMul(k, p).Equals(RefScalarMul(k, p)))
        << k.ToHex();
  }
}

TEST(EdPointKernelTest, ScalarMulMatchesReferenceOnTorsionPoint) {
  // P + T has a small-order component, so k * (P + T) depends on k mod 8l,
  // not k mod l: any reduction of k or (l - k) shortcut breaks equality.
  Rng rng(204);
  const EdPoint t = OrderEightPoint();
  const EdPoint q = EdPoint::Add(
      RefScalarMul(BigUint::RandomBelow(EdPoint::GroupOrder(), rng),
                   EdPoint::Base()),
      t);
  const std::vector<BigUint> scalars = AllScalars(205);
  for (const BigUint& k : scalars) {
    EXPECT_TRUE(EdPoint::ScalarMul(k, q).Equals(RefScalarMul(k, q)))
        << k.ToHex();
  }
  const BigUint& l = EdPoint::GroupOrder();
  EXPECT_TRUE(EdPoint::ScalarMul(l, q).Equals(RefScalarMul(l, t)));
  EXPECT_FALSE(EdPoint::ScalarMul(l, q).IsIdentity());
  // (l - k) * Q is not -(k * Q) once Q carries torsion.
  const BigUint k(12345);
  EXPECT_FALSE(EdPoint::ScalarMul(l.Sub(k), q)
                   .Equals(EdPoint::Negate(EdPoint::ScalarMul(k, q))));
}

TEST(EdPointKernelTest, NegateIsAdditiveInverse) {
  const EdPoint t = OrderEightPoint();
  const EdPoint q = EdPoint::Add(EdPoint::ScalarBaseMul(BigUint(777)), t);
  EXPECT_TRUE(EdPoint::Add(q, EdPoint::Negate(q)).IsIdentity());
  const BigUint k = BigUint(1).ShiftLeft(200).Add(BigUint(99));
  EXPECT_TRUE(EdPoint::ScalarMul(k, EdPoint::Negate(q))
                  .Equals(EdPoint::Negate(RefScalarMul(k, q))));
}

// sum_i k_i * P_i by the reference.
EdPoint RefMultiScalarMul(const std::vector<BigUint>& scalars,
                          const std::vector<EdPoint>& points) {
  EdPoint acc = EdPoint::Identity();
  for (size_t i = 0; i < scalars.size(); ++i) {
    acc = EdPoint::Add(acc, RefScalarMul(scalars[i], points[i]));
  }
  return acc;
}

// Points for MSM inputs: odd indices carry the order-8 component.
std::vector<EdPoint> MixedPoints(size_t n, uint64_t seed) {
  Rng rng(seed);
  const EdPoint t = OrderEightPoint();
  std::vector<EdPoint> out;
  for (size_t i = 0; i < n; ++i) {
    EdPoint p = EdPoint::ScalarBaseMul(
        BigUint::RandomBelow(EdPoint::GroupOrder(), rng));
    out.push_back(i % 2 ? EdPoint::Add(p, t) : p);
  }
  return out;
}

TEST(EdPointKernelTest, MultiScalarMulMatchesReference) {
  const std::vector<BigUint> all = AllScalars(301);
  const std::vector<EdPoint> points = MixedPoints(all.size(), 302);
  // The reference sum of every prefix, so each size is checked for the
  // cost of one reference multiplication per term.
  std::vector<EdPoint> prefix_sums = {EdPoint::Identity()};
  for (size_t i = 0; i < all.size(); ++i) {
    prefix_sums.push_back(
        EdPoint::Add(prefix_sums.back(), RefScalarMul(all[i], points[i])));
  }
  // Sizes span the n < 4 path and every window-width change up to c = 6.
  std::vector<size_t> sizes = {0, 1, 2, 3, 4, 5, 16, 17, 64, 65, 128, 129};
  sizes.push_back(all.size());
  for (size_t n : sizes) {
    const std::vector<BigUint> k(all.begin(), all.begin() + n);
    const std::vector<EdPoint> p(points.begin(), points.begin() + n);
    EXPECT_TRUE(EdPoint::MultiScalarMul(k, p).Equals(prefix_sums[n])) << n;
  }
}

TEST(EdPointKernelTest, MultiScalarMulMatchesSumOfScalarMul) {
  Rng rng(303);
  for (size_t n : {size_t{4}, size_t{17}, size_t{50}}) {
    std::vector<BigUint> k;
    for (size_t i = 0; i < n; ++i) {
      k.push_back(BigUint::FromBytesBE(rng.NextBytes(32)));
    }
    const std::vector<EdPoint> p = MixedPoints(n, 304 + n);
    EdPoint sum = EdPoint::Identity();
    for (size_t i = 0; i < n; ++i) {
      sum = EdPoint::Add(sum, EdPoint::ScalarMul(k[i], p[i]));
    }
    EXPECT_TRUE(EdPoint::MultiScalarMul(k, p).Equals(sum)) << n;
  }
}

TEST(EdPointKernelTest, MultiScalarMulEdgeScalarsOnEveryPoint) {
  // All-edge inputs: zeros, window-boundary values and the all-ones scalar
  // whose signed recoding carries into the extra top window.
  const std::vector<BigUint> edges = EdgeScalars();
  std::vector<BigUint> k;
  for (int rep = 0; rep < 3; ++rep) k.insert(k.end(), edges.begin(), edges.end());
  const std::vector<EdPoint> p = MixedPoints(k.size(), 305);
  EXPECT_TRUE(EdPoint::MultiScalarMul(k, p).Equals(RefMultiScalarMul(k, p)));
  const std::vector<BigUint> zeros(8);
  EXPECT_TRUE(EdPoint::MultiScalarMul(zeros, MixedPoints(8, 306)).IsIdentity());
}

}  // namespace
}  // namespace pds2::crypto
