#ifndef PDS2_CRYPTO_SHA256_INTERNAL_H_
#define PDS2_CRYPTO_SHA256_INTERNAL_H_

// SHA-256 compression kernels behind `Sha256`. Exposed only so tests can
// run the kernels against each other; library code goes through `Sha256`.

#include <cstddef>
#include <cstdint>

namespace pds2::crypto::internal {

/// Absorbs `nblocks` consecutive 64-byte blocks into the eight-word state
/// (FIPS 180-4 section 6.2.2, without padding).
using Sha256CompressFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                                  size_t nblocks);

/// Portable compression. Runs on every CPU and is the reference.
void Sha256CompressPortable(uint32_t state[8], const uint8_t* blocks,
                            size_t nblocks);

/// The x86 SHA-extensions compression, or nullptr when this build is not
/// x86 or CPUID does not report SHA, SSSE3 and SSE4.1.
Sha256CompressFn Sha256CompressHardware();

/// The kernel `Sha256` uses: the hardware one when available, else the
/// portable one. Chosen once, on first use.
Sha256CompressFn Sha256Compress();

}  // namespace pds2::crypto::internal

#endif  // PDS2_CRYPTO_SHA256_INTERNAL_H_
