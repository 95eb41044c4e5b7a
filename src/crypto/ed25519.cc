#include "crypto/ed25519.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace pds2::crypto {

using common::Bytes;
using common::Result;
using common::Status;

namespace {

using u128 = unsigned __int128;

constexpr uint64_t kMask51 = (uint64_t{1} << 51) - 1;

// 2*p in radix-2^51, added before subtraction to keep limbs non-negative.
constexpr uint64_t kTwoP0 = 0xfffffffffffdaULL;  // 2*(2^51 - 19)
constexpr uint64_t kTwoPn = 0xffffffffffffeULL;  // 2*(2^51 - 1)

}  // namespace

void Fe25519::Carry() {
  uint64_t c = 0;
  for (int i = 0; i < 5; ++i) {
    limbs_[i] += c;
    c = limbs_[i] >> 51;
    limbs_[i] &= kMask51;
  }
  limbs_[0] += 19 * c;
}

std::array<uint64_t, 5> Fe25519::Canonical() const {
  // curve25519-donna's fcontract. Two carry passes bring the value below
  // 2^255. Adding 19 and folding maps v to (v mod p) + 19; adding
  // 2^255 - 19 and dropping bit 255 (no fold) then leaves v mod p.
  Fe25519 t = *this;
  t.Carry();
  t.Carry();
  t.limbs_[0] += 19;
  t.Carry();
  t.limbs_[0] += (uint64_t{1} << 51) - 19;
  for (int i = 1; i < 5; ++i) t.limbs_[i] += (uint64_t{1} << 51) - 1;
  for (int i = 0; i < 4; ++i) {
    t.limbs_[i + 1] += t.limbs_[i] >> 51;
    t.limbs_[i] &= kMask51;
  }
  t.limbs_[4] &= kMask51;
  return t.limbs_;
}

Fe25519 Fe25519::FromU64(uint64_t v) {
  Fe25519 out;
  out.limbs_[0] = v & kMask51;
  out.limbs_[1] = v >> 51;
  return out;
}

Fe25519 Fe25519::FromBytes(const Bytes& b) {
  assert(b.size() >= 32);
  auto load64 = [&](size_t off) {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(b[off + i]) << (8 * i);
    return v;
  };
  Fe25519 out;
  out.limbs_[0] = load64(0) & kMask51;
  out.limbs_[1] = (load64(6) >> 3) & kMask51;
  out.limbs_[2] = (load64(12) >> 6) & kMask51;
  out.limbs_[3] = (load64(19) >> 1) & kMask51;
  out.limbs_[4] = (load64(24) >> 12) & kMask51;
  return out;
}

Bytes Fe25519::ToBytes() const {
  const std::array<uint64_t, 5> limbs = Canonical();
  // Pack 5x51 bits into 32 bytes little-endian.
  Bytes out(32, 0);
  u128 acc = 0;
  int acc_bits = 0;
  size_t byte = 0;
  for (int i = 0; i < 5; ++i) {
    acc |= static_cast<u128>(limbs[i]) << acc_bits;
    acc_bits += 51;
    while (acc_bits >= 8 && byte < 32) {
      out[byte++] = static_cast<uint8_t>(acc);
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  while (byte < 32) {
    out[byte++] = static_cast<uint8_t>(acc);
    acc >>= 8;
  }
  return out;
}

Fe25519 Fe25519::Add(const Fe25519& a, const Fe25519& b) {
  Fe25519 out;
  for (int i = 0; i < 5; ++i) out.limbs_[i] = a.limbs_[i] + b.limbs_[i];
  out.Carry();
  return out;
}

Fe25519 Fe25519::Sub(const Fe25519& a, const Fe25519& b) {
  Fe25519 out;
  out.limbs_[0] = a.limbs_[0] + kTwoP0 - b.limbs_[0];
  for (int i = 1; i < 5; ++i) {
    out.limbs_[i] = a.limbs_[i] + kTwoPn - b.limbs_[i];
  }
  out.Carry();
  return out;
}

namespace {

// Carry chain over the five 128-bit column sums of a product. With inputs
// below 2^51 + 2^13 each column is below 2^109, so the top carry times 19
// still fits in 64 bits; a single 0 -> 1 carry afterwards leaves limb 1
// below 2^51 + 2^11 (loosely reduced).
void CarryWide(u128 t0, u128 t1, u128 t2, u128 t3, u128 t4, uint64_t out[5]) {
  out[0] = static_cast<uint64_t>(t0) & kMask51;
  t1 += static_cast<uint64_t>(t0 >> 51);
  out[1] = static_cast<uint64_t>(t1) & kMask51;
  t2 += static_cast<uint64_t>(t1 >> 51);
  out[2] = static_cast<uint64_t>(t2) & kMask51;
  t3 += static_cast<uint64_t>(t2 >> 51);
  out[3] = static_cast<uint64_t>(t3) & kMask51;
  t4 += static_cast<uint64_t>(t3 >> 51);
  out[4] = static_cast<uint64_t>(t4) & kMask51;
  out[0] += static_cast<uint64_t>(t4 >> 51) * 19;
  out[1] += out[0] >> 51;
  out[0] &= kMask51;
}

}  // namespace

Fe25519 Fe25519::Mul(const Fe25519& f, const Fe25519& g) {
  const uint64_t* a = f.limbs_.data();
  const uint64_t* b = g.limbs_.data();

  // Terms with index >= 5 wrap with factor 19.
  const uint64_t b1_19 = b[1] * 19;
  const uint64_t b2_19 = b[2] * 19;
  const uint64_t b3_19 = b[3] * 19;
  const uint64_t b4_19 = b[4] * 19;

  const u128 t0 = static_cast<u128>(a[0]) * b[0] +
                  static_cast<u128>(a[1]) * b4_19 +
                  static_cast<u128>(a[2]) * b3_19 +
                  static_cast<u128>(a[3]) * b2_19 +
                  static_cast<u128>(a[4]) * b1_19;
  const u128 t1 = static_cast<u128>(a[0]) * b[1] +
                  static_cast<u128>(a[1]) * b[0] +
                  static_cast<u128>(a[2]) * b4_19 +
                  static_cast<u128>(a[3]) * b3_19 +
                  static_cast<u128>(a[4]) * b2_19;
  const u128 t2 = static_cast<u128>(a[0]) * b[2] +
                  static_cast<u128>(a[1]) * b[1] +
                  static_cast<u128>(a[2]) * b[0] +
                  static_cast<u128>(a[3]) * b4_19 +
                  static_cast<u128>(a[4]) * b3_19;
  const u128 t3 = static_cast<u128>(a[0]) * b[3] +
                  static_cast<u128>(a[1]) * b[2] +
                  static_cast<u128>(a[2]) * b[1] +
                  static_cast<u128>(a[3]) * b[0] +
                  static_cast<u128>(a[4]) * b4_19;
  const u128 t4 = static_cast<u128>(a[0]) * b[4] +
                  static_cast<u128>(a[1]) * b[3] +
                  static_cast<u128>(a[2]) * b[2] +
                  static_cast<u128>(a[3]) * b[1] +
                  static_cast<u128>(a[4]) * b[0];
  Fe25519 out;
  CarryWide(t0, t1, t2, t3, t4, out.limbs_.data());
  return out;
}

Fe25519 Fe25519::Square(const Fe25519& f) {
  const uint64_t* a = f.limbs_.data();
  const uint64_t a0_2 = a[0] * 2;
  const uint64_t a1_2 = a[1] * 2;
  const uint64_t a2_38 = a[2] * 38;
  const uint64_t a3_19 = a[3] * 19;
  const uint64_t a4_19 = a[4] * 19;
  const uint64_t a4_38 = a4_19 * 2;

  const u128 t0 = static_cast<u128>(a[0]) * a[0] +
                  static_cast<u128>(a4_38) * a[1] +
                  static_cast<u128>(a2_38) * a[3];
  const u128 t1 = static_cast<u128>(a0_2) * a[1] +
                  static_cast<u128>(a4_38) * a[2] +
                  static_cast<u128>(a3_19) * a[3];
  const u128 t2 = static_cast<u128>(a0_2) * a[2] +
                  static_cast<u128>(a[1]) * a[1] +
                  static_cast<u128>(a4_38) * a[3];
  const u128 t3 = static_cast<u128>(a0_2) * a[3] +
                  static_cast<u128>(a1_2) * a[2] +
                  static_cast<u128>(a4_19) * a[4];
  const u128 t4 = static_cast<u128>(a0_2) * a[4] +
                  static_cast<u128>(a1_2) * a[3] +
                  static_cast<u128>(a[2]) * a[2];
  Fe25519 out;
  CarryWide(t0, t1, t2, t3, t4, out.limbs_.data());
  return out;
}

namespace {

// a^(2^n).
Fe25519 SquareTimes(Fe25519 a, int n) {
  for (int i = 0; i < n; ++i) a = Fe25519::Square(a);
  return a;
}

// The shared prefix of the ref10 exponentiation chains: returns
// z^(2^250 - 1) and sets *z11 = z^11 (249 squarings, 10 multiplications).
Fe25519 Pow2To250Minus1(const Fe25519& z, Fe25519* z11) {
  const Fe25519 z2 = Fe25519::Square(z);
  const Fe25519 z9 = Fe25519::Mul(SquareTimes(z2, 2), z);
  *z11 = Fe25519::Mul(z9, z2);
  const Fe25519 z_5_0 = Fe25519::Mul(Fe25519::Square(*z11), z9);  // 2^5-1
  const Fe25519 z_10_0 = Fe25519::Mul(SquareTimes(z_5_0, 5), z_5_0);
  const Fe25519 z_20_0 = Fe25519::Mul(SquareTimes(z_10_0, 10), z_10_0);
  const Fe25519 z_40_0 = Fe25519::Mul(SquareTimes(z_20_0, 20), z_20_0);
  const Fe25519 z_50_0 = Fe25519::Mul(SquareTimes(z_40_0, 10), z_10_0);
  const Fe25519 z_100_0 = Fe25519::Mul(SquareTimes(z_50_0, 50), z_50_0);
  const Fe25519 z_200_0 = Fe25519::Mul(SquareTimes(z_100_0, 100), z_100_0);
  return Fe25519::Mul(SquareTimes(z_200_0, 50), z_50_0);
}

}  // namespace

Fe25519 Fe25519::Invert(const Fe25519& a) {
  // p - 2 = 2^255 - 21 = 2^5 * (2^250 - 1) + 11.
  Fe25519 a11;
  const Fe25519 t = Pow2To250Minus1(a, &a11);
  return Mul(SquareTimes(t, 5), a11);
}

Fe25519 Fe25519::PowP38(const Fe25519& a) {
  // (p + 3) / 8 = 2^252 - 2 = 2^2 * (2^250 - 1) + 2.
  Fe25519 a11;
  const Fe25519 t = Pow2To250Minus1(a, &a11);
  return Mul(SquareTimes(t, 2), Square(a));
}

bool Fe25519::IsZero() const {
  const std::array<uint64_t, 5> c = Canonical();
  return (c[0] | c[1] | c[2] | c[3] | c[4]) == 0;
}

bool Fe25519::Equals(const Fe25519& other) const {
  return Canonical() == other.Canonical();
}

bool Fe25519::IsNegative() const { return Canonical()[0] & 1; }

// ---------------------------------------------------------------------------
// Curve constants, computed once.

namespace {

struct CurveConstants {
  Fe25519 d;        // -121665 / 121666
  Fe25519 d2;       // 2 * d
  Fe25519 sqrt_m1;  // sqrt(-1) = 2^((p-1)/4)
};

const CurveConstants& Constants() {
  static const CurveConstants* consts = [] {
    auto* c = new CurveConstants();
    const Fe25519 num = Fe25519::Sub(Fe25519(), Fe25519::FromU64(121665));
    const Fe25519 den_inv = Fe25519::Invert(Fe25519::FromU64(121666));
    c->d = Fe25519::Mul(num, den_inv);
    c->d2 = Fe25519::Add(c->d, c->d);
    // sqrt(-1) = 2^((p-1)/4); (p-1)/4 = 2^253 - 5 = 2^3 * (2^250 - 1) + 3,
    // so the tail factor is 2^3 = 8 (the chain's 2^11 goes unused).
    Fe25519 unused;
    const Fe25519 t = Pow2To250Minus1(Fe25519::FromU64(2), &unused);
    c->sqrt_m1 = Fe25519::Mul(SquareTimes(t, 3), Fe25519::FromU64(8));
    return c;
  }();
  return *consts;
}

}  // namespace

// ---------------------------------------------------------------------------
// Point kernels in ref10's coordinate systems. EdPoint itself is the
// extended form (X : Y : Z : T) with x = X/Z, y = Y/Z, XY = ZT. The
// formulas are RFC 8032's (a = -1) addition and doubling, split so that
// each caller pays only for the coordinates its next step reads.

struct EdKernels {
  using F = Fe25519;

  // Projective (X : Y : Z): all a doubling reads.
  struct P2 {
    F x, y, z;
  };
  // Completed point: x = X/Z, y = Y/T. What an addition or doubling yields
  // before its last multiplications.
  struct P1P1 {
    F x, y, z, t;
  };
  // An extended point prepared as an addend: (Y + X, Y - X, Z, 2dT).
  struct Cached {
    F y_plus_x, y_minus_x, z, t2d;
  };
  // An affine (Z = 1) point prepared as an addend: (y + x, y - x, 2dxy).
  struct Affine {
    F y_plus_x, y_minus_x, xy2d;
  };
  using BaseRow = std::array<Affine, 8>;

  static P2 ToP2(const EdPoint& p) { return {p.x_, p.y_, p.z_}; }
  static P2 ToP2(const P1P1& p) {
    return {F::Mul(p.x, p.t), F::Mul(p.y, p.z), F::Mul(p.z, p.t)};
  }
  static EdPoint ToP3(const P1P1& p) {
    EdPoint out;
    out.x_ = F::Mul(p.x, p.t);
    out.y_ = F::Mul(p.y, p.z);
    out.z_ = F::Mul(p.z, p.t);
    out.t_ = F::Mul(p.x, p.y);
    return out;
  }
  static Cached ToCached(const EdPoint& p) {
    return {F::Add(p.y_, p.x_), F::Sub(p.y_, p.x_), p.z_,
            F::Mul(p.t_, Constants().d2)};
  }

  // Negation maps (x, y) to (-x, y): swap y + x with y - x, negate the T
  // term.
  static Cached Neg(const Cached& q) {
    return {q.y_minus_x, q.y_plus_x, q.z, F::Sub(F(), q.t2d)};
  }
  static Affine Neg(const Affine& q) {
    return {q.y_minus_x, q.y_plus_x, F::Sub(F(), q.xy2d)};
  }

  // 4 squarings; ToP2/ToP3 of the result add 3/4 multiplications.
  static P1P1 Dbl(const P2& p) {
    const F xx = F::Square(p.x);
    const F yy = F::Square(p.y);
    const F zz = F::Square(p.z);
    const F xy = F::Square(F::Add(p.x, p.y));
    P1P1 r;
    r.y = F::Add(yy, xx);
    r.z = F::Sub(yy, xx);
    r.x = F::Sub(xy, r.y);
    r.t = F::Sub(F::Add(zz, zz), r.z);
    return r;
  }

  // p + q: 4 multiplications (3 for an affine q), plus ToP2/ToP3.
  static P1P1 Sum(const EdPoint& p, const F& ymx_q, const F& ypx_q,
                  const F& t2d_q, const F& two_z) {
    const F a = F::Mul(F::Sub(p.y_, p.x_), ymx_q);
    const F b = F::Mul(F::Add(p.y_, p.x_), ypx_q);
    const F c = F::Mul(t2d_q, p.t_);
    P1P1 r;
    r.x = F::Sub(b, a);
    r.y = F::Add(b, a);
    r.z = F::Add(two_z, c);
    r.t = F::Sub(two_z, c);
    return r;
  }
  static P1P1 Add(const EdPoint& p, const Cached& q) {
    const F zz = F::Mul(p.z_, q.z);
    return Sum(p, q.y_minus_x, q.y_plus_x, q.t2d, F::Add(zz, zz));
  }
  static P1P1 Add(const EdPoint& p, const Affine& q) {
    return Sum(p, q.y_minus_x, q.y_plus_x, q.xy2d, F::Add(p.z_, p.z_));
  }

  // 2^n * p through projective doublings.
  static EdPoint DoubleTimes(const EdPoint& p, size_t n) {
    if (n == 0) return p;
    P2 r = ToP2(p);
    for (size_t i = 1; i < n; ++i) r = ToP2(Dbl(r));
    return ToP3(Dbl(r));
  }

  // Affine addends for many points with a single inversion (Montgomery's
  // trick): prefix[i] = z_0 * ... * z_(i-1).
  static std::vector<Affine> ToAffineBatch(const std::vector<EdPoint>& points) {
    std::vector<F> prefix(points.size());
    F product = F::FromU64(1);
    for (size_t i = 0; i < points.size(); ++i) {
      prefix[i] = product;
      product = F::Mul(product, points[i].z_);
    }
    F inverse = F::Invert(product);  // 1 / (z_0 * ... * z_i) below
    std::vector<Affine> out(points.size());
    for (size_t i = points.size(); i-- > 0;) {
      const F z_inv = F::Mul(inverse, prefix[i]);
      inverse = F::Mul(inverse, points[i].z_);
      const F x = F::Mul(points[i].x_, z_inv);
      const F y = F::Mul(points[i].y_, z_inv);
      out[i] = {F::Add(y, x), F::Sub(y, x),
                F::Mul(F::Mul(x, y), Constants().d2)};
    }
    return out;
  }

  // Row i holds (j + 1) * 16^i * B for j < 8, as affine addends.
  static const std::array<BaseRow, 64>& BaseTable() {
    static const std::array<BaseRow, 64>* table = [] {
      std::vector<EdPoint> points;
      points.reserve(64 * 8);
      EdPoint row_base = EdPoint::Base();
      for (int i = 0; i < 64; ++i) {
        EdPoint multiple = row_base;
        for (int j = 0; j < 8; ++j) {
          points.push_back(multiple);
          multiple = EdPoint::Add(multiple, row_base);
        }
        row_base = EdPoint::Double(points.back());  // 16 * (8 * 16^i * B)
      }
      const std::vector<Affine> affine = ToAffineBatch(points);
      auto* out = new std::array<BaseRow, 64>();
      for (size_t i = 0; i < affine.size(); ++i) {
        (*out)[i / 8][i % 8] = affine[i];
      }
      return out;
    }();
    return *table;
  }
};

namespace {

// Width-5 non-adjacent form of k, least significant digit first: every
// nonzero digit is odd and in [-15, 15], and a nonzero digit is followed
// by at least four zeros. Length BitLength(k) + 1, since the recoding can
// carry one position past the top bit.
std::vector<int8_t> Wnaf5(const BigUint& k) {
  constexpr size_t kW = 5;
  constexpr uint64_t kWidth = uint64_t{1} << kW;
  const size_t bits = k.BitLength();
  std::vector<uint64_t> limbs = k.limbs();
  limbs.push_back(0);  // the last window may read past the top limb
  std::vector<int8_t> naf(bits + 1, 0);
  uint64_t carry = 0;
  size_t pos = 0;
  while (pos <= bits) {
    const size_t limb = pos / 64, off = pos % 64;
    uint64_t buf = limbs[limb] >> off;
    if (off + kW > 64 && limb + 1 < limbs.size()) {
      buf |= limbs[limb + 1] << (64 - off);
    }
    const uint64_t window = carry + (buf & (kWidth - 1));
    if ((window & 1) == 0) {
      ++pos;  // digit 0; an even window passes the carry on unchanged
      continue;
    }
    if (window < kWidth / 2) {
      naf[pos] = static_cast<int8_t>(window);
      carry = 0;
    } else {
      naf[pos] = static_cast<int8_t>(static_cast<int>(window) -
                                     static_cast<int>(kWidth));
      carry = 1;
    }
    pos += kW;
  }
  return naf;
}

}  // namespace

bool EdPoint::OnCurve(const Fe25519& x, const Fe25519& y) {
  // -x^2 + y^2 == 1 + d x^2 y^2
  const Fe25519 xx = Fe25519::Square(x);
  const Fe25519 yy = Fe25519::Square(y);
  const Fe25519 lhs = Fe25519::Sub(yy, xx);
  const Fe25519 dxxyy = Fe25519::Mul(Constants().d, Fe25519::Mul(xx, yy));
  const Fe25519 rhs = Fe25519::Add(Fe25519::FromU64(1), dxxyy);
  return lhs.Equals(rhs);
}

EdPoint EdPoint::FromAffine(const Fe25519& x, const Fe25519& y) {
  EdPoint p;
  p.x_ = x;
  p.y_ = y;
  p.z_ = Fe25519::FromU64(1);
  p.t_ = Fe25519::Mul(x, y);
  return p;
}

EdPoint EdPoint::Identity() {
  return FromAffine(Fe25519(), Fe25519::FromU64(1));
}

const EdPoint& EdPoint::Base() {
  static const EdPoint* base = [] {
    // y = 4/5; recover even x from the curve equation.
    const Fe25519 y =
        Fe25519::Mul(Fe25519::FromU64(4), Fe25519::Invert(Fe25519::FromU64(5)));
    const Fe25519 yy = Fe25519::Square(y);
    const Fe25519 u = Fe25519::Sub(yy, Fe25519::FromU64(1));  // y^2 - 1
    const Fe25519 v =
        Fe25519::Add(Fe25519::Mul(Constants().d, yy), Fe25519::FromU64(1));
    // Candidate root of u/v: (u/v)^((p+3)/8).
    const Fe25519 uv = Fe25519::Mul(u, Fe25519::Invert(v));
    Fe25519 x = Fe25519::PowP38(uv);
    if (!Fe25519::Square(x).Equals(uv)) {
      x = Fe25519::Mul(x, Constants().sqrt_m1);
    }
    assert(Fe25519::Square(x).Equals(uv));
    if (x.IsNegative()) x = Fe25519::Sub(Fe25519(), x);  // pick even root
    assert(OnCurve(x, y));
    return new EdPoint(FromAffine(x, y));
  }();
  return *base;
}

const BigUint& EdPoint::GroupOrder() {
  static const BigUint* order = [] {
    auto r = BigUint::FromDecimal(
        "7237005577332262213973186563042994240857116359379907606001950938285"
        "454250989");  // 2^252 + 27742317777372353535851937790883648493
    assert(r.ok());
    return new BigUint(std::move(r).value());
  }();
  return *order;
}

EdPoint EdPoint::Add(const EdPoint& p, const EdPoint& q) {
  return EdKernels::ToP3(EdKernels::Add(p, EdKernels::ToCached(q)));
}

EdPoint EdPoint::Double(const EdPoint& p) {
  return EdKernels::ToP3(EdKernels::Dbl(EdKernels::ToP2(p)));
}

EdPoint EdPoint::Negate(const EdPoint& p) {
  EdPoint out = p;
  out.x_ = Fe25519::Sub(Fe25519(), p.x_);
  out.t_ = Fe25519::Sub(Fe25519(), p.t_);
  return out;
}

EdPoint EdPoint::ScalarMul(const BigUint& k, const EdPoint& p) {
  using K = EdKernels;
  const std::vector<int8_t> naf = Wnaf5(k);
  size_t top = naf.size();
  while (top > 0 && naf[top - 1] == 0) --top;
  if (top == 0) return Identity();

  // odd[j] = (2j + 1) * p.
  std::array<K::Cached, 8> odd;
  odd[0] = K::ToCached(p);
  const K::Cached two_p = K::ToCached(Double(p));
  EdPoint multiple = p;
  for (size_t j = 1; j < odd.size(); ++j) {
    multiple = K::ToP3(K::Add(multiple, two_p));
    odd[j] = K::ToCached(multiple);
  }

  K::P2 acc = K::ToP2(Identity());
  for (size_t i = top; i-- > 0;) {
    K::P1P1 t = K::Dbl(acc);
    if (naf[i] > 0) {
      t = K::Add(K::ToP3(t), odd[naf[i] / 2]);
    } else if (naf[i] < 0) {
      t = K::Add(K::ToP3(t), K::Neg(odd[-naf[i] / 2]));
    }
    if (i == 0) return K::ToP3(t);
    acc = K::ToP2(t);
  }
  return Identity();  // unreachable: top > 0
}

EdPoint EdPoint::ScalarBaseMul(const BigUint& k) {
  using K = EdKernels;
  // B has prime order, so k may be reduced; then k < 2^253.
  const BigUint& order = GroupOrder();
  const BigUint reduced = k < order ? k : k.Mod(order);
  std::array<uint8_t, 32> bytes{};
  const std::vector<uint64_t>& limbs = reduced.limbs();
  for (size_t i = 0; i < limbs.size(); ++i) {
    for (size_t b = 0; b < 8; ++b) {
      bytes[8 * i + b] = static_cast<uint8_t>(limbs[i] >> (8 * b));
    }
  }
  // Signed radix 16: k = sum e[i] * 16^i with e[i] in [-8, 8).
  std::array<int8_t, 64> e;
  for (size_t i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<int8_t>(bytes[i] & 15);
    e[2 * i + 1] = static_cast<int8_t>(bytes[i] >> 4);
  }
  int carry = 0;
  for (size_t i = 0; i < 63; ++i) {
    const int digit = e[i] + carry;
    carry = (digit + 8) >> 4;
    e[i] = static_cast<int8_t>(digit - (carry << 4));
  }
  e[63] = static_cast<int8_t>(e[63] + carry);  // k < 2^253: at most 2

  const std::array<K::BaseRow, 64>& table = K::BaseTable();
  EdPoint acc = Identity();
  for (size_t i = 0; i < 64; ++i) {
    if (e[i] > 0) {
      acc = K::ToP3(K::Add(acc, table[i][e[i] - 1]));
    } else if (e[i] < 0) {
      acc = K::ToP3(K::Add(acc, K::Neg(table[i][-e[i] - 1])));
    }
  }
  return acc;
}

EdPoint EdPoint::MultiScalarMul(const std::vector<BigUint>& scalars,
                                const std::vector<EdPoint>& points) {
  using K = EdKernels;
  assert(scalars.size() == points.size());
  const size_t n = scalars.size();
  if (n == 0) return Identity();

  // Below this size the bucket setup dominates; independent wNAF wins.
  if (n < 4) {
    EdPoint acc = Identity();
    for (size_t i = 0; i < n; ++i) {
      acc = Add(acc, ScalarMul(scalars[i], points[i]));
    }
    return acc;
  }

  // Fixed-width little-endian limbs for cheap window extraction; the fifth
  // limb stays zero so the top window may read past bit 255.
  size_t max_bits = 0;
  std::vector<std::array<uint64_t, 5>> limbs(n, {0, 0, 0, 0, 0});
  for (size_t i = 0; i < n; ++i) {
    const auto& sl = scalars[i].limbs();
    assert(sl.size() <= 4 && "scalar exceeds 256 bits");
    for (size_t j = 0; j < sl.size() && j < 4; ++j) limbs[i][j] = sl[j];
    if (scalars[i].BitLength() > max_bits) max_bits = scalars[i].BitLength();
  }
  if (max_bits == 0) return Identity();

  // Window width c balances the per-window bucket walk (2^c additions over
  // 2^(c-1) signed buckets) against the per-point additions (n per window):
  // pick 2^(c+2) ~ n.
  size_t c = 4;
  while (c < 12 && (size_t{1} << (c + 2)) < n) ++c;
  const uint64_t digit_mask = (uint64_t{1} << c) - 1;
  const int64_t half = int64_t{1} << (c - 1);

  // Signed digits in (-2^(c-1), 2^(c-1)]: a window above half borrows
  // 2^c from the next one. One window past the top bits absorbs the last
  // carry, and its digit is at most half.
  const size_t num_windows = max_bits / c + 1;
  std::vector<int16_t> digits(n * num_windows);
  for (size_t i = 0; i < n; ++i) {
    int64_t carry = 0;
    for (size_t w = 0; w < num_windows; ++w) {
      const size_t bit = w * c, limb = bit / 64, off = bit % 64;
      uint64_t raw = limbs[i][limb] >> off;
      if (off + c > 64 && limb + 1 < 5) raw |= limbs[i][limb + 1] << (64 - off);
      int64_t d = static_cast<int64_t>(raw & digit_mask) + carry;
      carry = d > half ? 1 : 0;
      d -= carry << c;
      digits[i * num_windows + w] = static_cast<int16_t>(d);
    }
    assert(carry == 0);
  }

  const std::vector<K::Affine> affine = K::ToAffineBatch(points);

  std::vector<EdPoint> buckets(static_cast<size_t>(half) + 1, Identity());
  std::vector<bool> used(buckets.size(), false);
  EdPoint result = Identity();
  for (size_t w = num_windows; w-- > 0;) {
    if (w + 1 < num_windows) result = K::DoubleTimes(result, c);
    std::fill(used.begin(), used.end(), false);
    for (size_t i = 0; i < n; ++i) {
      const int d = digits[i * num_windows + w];
      if (d == 0) continue;
      const size_t b = static_cast<size_t>(d > 0 ? d : -d);
      if (!used[b]) {
        buckets[b] = d > 0 ? points[i] : Negate(points[i]);
        used[b] = true;
      } else {
        buckets[b] = K::ToP3(
            K::Add(buckets[b], d > 0 ? affine[i] : K::Neg(affine[i])));
      }
    }
    // sum_b b * bucket[b] through suffix sums: running accumulates the
    // buckets from the top, so adding it once per step weights bucket b by
    // exactly b.
    EdPoint running = Identity();
    EdPoint window_sum = Identity();
    bool any = false;
    for (size_t b = buckets.size(); b-- > 1;) {
      if (used[b]) {
        running = any ? Add(running, buckets[b]) : buckets[b];
        any = true;
      }
      if (any) window_sum = Add(window_sum, running);
    }
    if (any) result = Add(result, window_sum);
  }
  return result;
}

void EdPoint::ToAffine(Fe25519* x, Fe25519* y) const {
  const Fe25519 z_inv = Fe25519::Invert(z_);
  *x = Fe25519::Mul(x_, z_inv);
  *y = Fe25519::Mul(y_, z_inv);
}

Bytes EdPoint::Encode() const {
  Fe25519 x, y;
  ToAffine(&x, &y);
  Bytes out = x.ToBytes();
  Bytes yb = y.ToBytes();
  out.insert(out.end(), yb.begin(), yb.end());
  return out;
}

Result<EdPoint> EdPoint::Decode(const Bytes& enc) {
  if (enc.size() != 64) {
    return Status::InvalidArgument("point encoding must be 64 bytes");
  }
  Bytes xb(enc.begin(), enc.begin() + 32);
  Bytes yb(enc.begin() + 32, enc.end());
  const Fe25519 x = Fe25519::FromBytes(xb);
  const Fe25519 y = Fe25519::FromBytes(yb);
  if (!OnCurve(x, y)) {
    return Status::InvalidArgument("encoded point not on curve");
  }
  return FromAffine(x, y);
}

bool EdPoint::Equals(const EdPoint& other) const {
  // Cross-multiply to avoid inversions: X1*Z2 == X2*Z1 and same for Y.
  const Fe25519 lhs_x = Fe25519::Mul(x_, other.z_);
  const Fe25519 rhs_x = Fe25519::Mul(other.x_, z_);
  const Fe25519 lhs_y = Fe25519::Mul(y_, other.z_);
  const Fe25519 rhs_y = Fe25519::Mul(other.y_, z_);
  return lhs_x.Equals(rhs_x) && lhs_y.Equals(rhs_y);
}

}  // namespace pds2::crypto
