/**
 * @file
 * AES-128 (FIPS-197): key schedule, block encryption, and the fused
 * re-keyed MMO kernel under the Half-Gate hash.
 *
 * HAAC's Half-Gate units hash labels with AES using *re-keying*: every
 * hash uses a fresh key derived from the gate index, so the 176-byte key
 * expansion runs per hash (Fig. 2 of the paper). This module exposes the
 * key schedule separately from block encryption so both the re-keying
 * and fixed-key constructions (and the 27.5% cost ablation between them)
 * can be expressed.
 *
 * On x86 CPUs with AES-NI and SSSE3 (checked once per process) the key
 * schedule runs on AES-NI: round key i+1 is derived from round key i in
 * registers, with a pshufb + aesenclast RotWord/SubWord step. The fused
 * kernel (aesMmoRekeyed) feeds each round key into the aesenc of its
 * blocks as soon as it exists, so a re-keyed hash never stores a
 * schedule. Other hosts, and builds configured with
 * -DHAAC_ENABLE_AESNI=OFF, run a portable byte-wise implementation that
 * is bit-identical.
 *
 * This is an encryption-only implementation (GC never decrypts AES).
 */
#ifndef HAAC_CRYPTO_AES128_H
#define HAAC_CRYPTO_AES128_H

#include <array>
#include <cstdint>

#include "crypto/label.h"

namespace haac {

/** Number of 16-byte round keys for AES-128 (the 176-byte schedule). */
inline constexpr int kAesRounds = 10;
inline constexpr size_t kAesExpandedKeyBytes = 16 * (kAesRounds + 1);

/**
 * An expanded AES-128 key schedule.
 *
 * Construction runs the FIPS-197 key expansion; this is the unit of
 * work the paper's "key expand" boxes represent. Keep one when a key
 * encrypts many blocks; for one or two blocks per key, aesMmoRekeyed
 * never materializes the schedule.
 */
class Aes128
{
  public:
    /** Expand a 16-byte key. */
    explicit Aes128(const uint8_t key[16]);

    /** Expand a key held in a Label (little-endian serialization). */
    explicit Aes128(const Label &key);

    /** Encrypt one 16-byte block in place semantics: out may alias in. */
    void encryptBlock(const uint8_t in[16], uint8_t out[16]) const;

    /** Encrypt a Label-typed block. */
    Label encryptBlock(const Label &in) const;

    /** Raw access to the 176-byte schedule (for tests). */
    const std::array<uint8_t, kAesExpandedKeyBytes> &
    roundKeys() const
    {
        return roundKeys_;
    }

  private:
    std::array<uint8_t, kAesExpandedKeyBytes> roundKeys_{};
};

/**
 * Fused re-keyed Matyas-Meyer-Oseas compression: expand each of the
 * kKeys keys and compress kPerKey blocks under it,
 * out[k * kPerKey + i] = AES_{keys[k]}(x) ^ x with x = in[k * kPerKey + i].
 *
 * Bit-identical to Aes128(keys[k]).encryptBlock(x) ^ x. On AES-NI the
 * kKeys schedules are derived side by side in registers, interleaved
 * with the aesenc of their blocks. Defined for <1, 1> (one hash), <2, 1>
 * (evaluating a Half-Gate AND) and <2, 2> (garbling one).
 */
template <int kKeys, int kPerKey>
void aesMmoRekeyed(const Label (&keys)[kKeys],
                   const Label (&in)[kKeys * kPerKey],
                   Label (&out)[kKeys * kPerKey]);

} // namespace haac

#endif // HAAC_CRYPTO_AES128_H
