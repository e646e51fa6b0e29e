/**
 * @file
 * In-repo Curve25519 group arithmetic for the base oblivious transfers.
 *
 * The real-OT layer (gc/base_ot.h) needs a Diffie-Hellman group with
 * full point addition — the Chou-Orlandi construction blinds the
 * receiver's key as R = c*A + x*G — so this implements the twisted
 * Edwards form of Curve25519 (the Ed25519 group of RFC 8032): field
 * arithmetic mod 2^255-19 in five 51-bit limbs on unsigned __int128,
 * complete extended-coordinate addition, fixed-window scalar
 * multiplication, and RFC 8032 point compression/decompression.
 *
 * Deliberately small: encryption-only GC needs no signatures and no
 * external library. The field arithmetic is branch-free on secret limbs
 * and scalar multiplication is constant-time in the scalar (the base-OT
 * secrets); decompression of public points is not.
 */
#ifndef HAAC_CRYPTO_CURVE25519_H
#define HAAC_CRYPTO_CURVE25519_H

#include <cstdint>

#include "crypto/prg.h"

namespace haac {
namespace ec {

/** Serialized (compressed) point and scalar size in bytes. */
inline constexpr size_t kPointBytes = 32;
inline constexpr size_t kScalarBytes = 32;

/** A scalar multiplier, little-endian; any 256-bit value is usable. */
struct Scalar
{
    uint8_t bytes[kScalarBytes] = {};
};

/** Draw a uniform 255-bit scalar from @p rng. */
Scalar randomScalar(Prg &rng);

/** An Ed25519 group element in extended coordinates (X:Y:Z:T). */
class Point
{
  public:
    /** The neutral element (0, 1). */
    Point();

    /** The RFC 8032 base point B. */
    static const Point &base();

    /**
     * Decompress an RFC 8032 encoding.
     *
     * @return false when @p in is not a valid curve point (the caller
     *         must treat that as a protocol error, not a crash).
     */
    static bool fromBytes(const uint8_t in[kPointBytes], Point &out);

    /** Compress to the canonical 32-byte RFC 8032 encoding. */
    void toBytes(uint8_t out[kPointBytes]) const;

    Point add(const Point &o) const;
    Point sub(const Point &o) const;
    Point dbl() const;

    /**
     * Variable-base scalar multiplication k*P: a fixed 4-bit window
     * whose branches and memory addresses do not depend on @p k.
     */
    static Point mul(const Scalar &k, const Point &p);

    /** Canonical-encoding equality (compares compressed bytes). */
    bool equals(const Point &o) const;

    bool isIdentity() const;

  private:
    // Field element mod 2^255-19: five unsaturated 51-bit limbs.
    struct Fe
    {
        uint64_t v[5];
    };

    Fe X_, Y_, Z_, T_;
};

} // namespace ec
} // namespace haac

#endif // HAAC_CRYPTO_CURVE25519_H
