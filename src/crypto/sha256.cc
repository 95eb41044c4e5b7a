#include "crypto/sha256.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "crypto/sha256_internal.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#include <immintrin.h>
#define PDS2_SHA256_X86 1
#else
#define PDS2_SHA256_X86 0
#endif

namespace pds2::crypto {

using common::Bytes;

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if PDS2_SHA256_X86
bool CpuHasShaExtensions() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  if ((ecx & bit_SSSE3) == 0 || (ecx & bit_SSE4_1) == 0) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & bit_SHA) != 0;
}

// Four SHA-256 rounds per sha256rnds2 pair. The state lives in two
// registers as (A,B,E,F) and (C,D,G,H); m[g % 4] holds schedule words
// W[4g..4g+3] and is extended in place with sha256msg1/msg2 while the
// rounds of earlier groups run.
__attribute__((target("sha,sse4.1,ssse3"))) void CompressShaExtensions(
    uint32_t state[8], const uint8_t* blocks, size_t nblocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        m[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            byte_swap);
      }
      __m128i wk = _mm_add_epi32(
          m[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g <= 14) {
        // W[4g+4..4g+7] = msg2(msg1-part + W[4g-3..4g], W[4g..4g+3]).
        const __m128i w7 = _mm_alignr_epi8(m[g % 4], m[(g + 3) % 4], 4);
        m[(g + 1) % 4] = _mm_sha256msg2_epu32(
            _mm_add_epi32(m[(g + 1) % 4], w7), m[g % 4]);
      }
      wk = _mm_shuffle_epi32(wk, 0x0e);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (g >= 1 && g <= 12) {
        m[(g + 3) % 4] = _mm_sha256msg1_epu32(m[(g + 3) % 4], m[g % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  dcba = _mm_blend_epi16(feba, dchg, 0xf0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}
#endif  // PDS2_SHA256_X86

}  // namespace

namespace internal {

void Sha256CompressPortable(uint32_t state[8], const uint8_t* blocks,
                            size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256CompressFn Sha256CompressHardware() {
#if PDS2_SHA256_X86
  static const bool supported = CpuHasShaExtensions();
  return supported ? &CompressShaExtensions : nullptr;
#else
  return nullptr;
#endif
}

Sha256CompressFn Sha256Compress() {
  static const Sha256CompressFn chosen = [] {
    const Sha256CompressFn hardware = Sha256CompressHardware();
    return hardware != nullptr ? hardware : &Sha256CompressPortable;
  }();
  return chosen;
}

}  // namespace internal

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::Update(const uint8_t* data, size_t len) {
  if (len == 0) return;
  total_len_ += len;
  const internal::Sha256CompressFn compress = internal::Sha256Compress();
  if (buffer_len_ > 0) {
    const size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < sizeof(buffer_)) return;
    compress(state_.data(), buffer_, 1);
    buffer_len_ = 0;
  }
  // Whole blocks go straight from the caller's buffer.
  const size_t whole = len / sizeof(buffer_);
  if (whole > 0) {
    compress(state_.data(), data, whole);
    data += whole * sizeof(buffer_);
    len -= whole * sizeof(buffer_);
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

Bytes Sha256::Finish() {
  // Append 0x80, zero-fill to 56 mod 64, then the 64-bit big-endian bit
  // length. The buffer is never full here, so 0x80 always fits.
  const internal::Sha256CompressFn compress = internal::Sha256Compress();
  const uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    compress(state_.data(), buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress(state_.data(), buffer_, 1);

  Bytes digest(kSha256DigestSize);
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

Bytes Sha256::Hash(const Bytes& data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Bytes Sha256::Hash(std::string_view data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Bytes Sha256::Hash2(const Bytes& a, const Bytes& b) {
  Sha256 h;
  h.Update(a);
  h.Update(b);
  return h.Finish();
}

Bytes HmacSha256(const Bytes& key, const Bytes& msg) {
  constexpr size_t kBlockSize = 64;
  Bytes k = key;
  if (k.size() > kBlockSize) k = Sha256::Hash(k);
  k.resize(kBlockSize, 0);

  Bytes ipad(kBlockSize), opad(kBlockSize);
  for (size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.Update(ipad);
  inner.Update(msg);
  Bytes inner_digest = inner.Finish();

  Sha256 outer;
  outer.Update(opad);
  outer.Update(inner_digest);
  return outer.Finish();
}

Bytes DeriveKey(const Bytes& key, std::string_view info, size_t out_len) {
  Bytes out;
  out.reserve(out_len);
  uint32_t counter = 0;
  while (out.size() < out_len) {
    Bytes block_input(info.begin(), info.end());
    for (int i = 0; i < 4; ++i) {
      block_input.push_back(static_cast<uint8_t>(counter >> (8 * i)));
    }
    Bytes block = HmacSha256(key, block_input);
    const size_t take = std::min(block.size(), out_len - out.size());
    out.insert(out.end(), block.begin(), block.begin() + static_cast<ptrdiff_t>(take));
    ++counter;
  }
  return out;
}

}  // namespace pds2::crypto
