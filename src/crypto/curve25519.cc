#include "crypto/curve25519.h"

#include <cstring>

namespace haac {
namespace ec {

namespace {

using u64 = uint64_t;
using u128 = unsigned __int128;

constexpr u64 kMask51 = (u64(1) << 51) - 1;

// Curve constants as 51-bit limbs; tests/test_crypto.cc cross-checks
// the compressed base point against the RFC 8032 value.
constexpr u64 kD[5] = {0x34dca135978a3ull, 0x1a8283b156ebdull,
                       0x5e7a26001c029ull, 0x739c663a03cbbull,
                       0x52036cee2b6ffull};
constexpr u64 kD2[5] = {0x69b9426b2f159ull, 0x35050762add7aull,
                        0x3cf44c0038052ull, 0x6738cc7407977ull,
                        0x2406d9dc56dffull};
constexpr u64 kSqrtM1[5] = {0x61b274a0ea0b0ull, 0x0d5a5fc8f189dull,
                            0x7ef5e9cbd0c60ull, 0x78595a6804c9eull,
                            0x2b8324804fc1dull};
constexpr u64 kBaseX[5] = {0x62d608f25d51aull, 0x412a4b4f6592aull,
                           0x75b7171a4b31dull, 0x1ff60527118feull,
                           0x216936d3cd6e5ull};
constexpr u64 kBaseY[5] = {0x6666666666658ull, 0x4ccccccccccccull,
                           0x1999999999999ull, 0x3333333333333ull,
                           0x6666666666666ull};
constexpr u64 kBaseT[5] = {0x68ab3a5b7dda3ull, 0x00eea2a5eadbbull,
                           0x2af8df483c27eull, 0x332b375274732ull,
                           0x67875f0fd78b7ull};

void
feZero(u64 out[5])
{
    out[0] = out[1] = out[2] = out[3] = out[4] = 0;
}

void
feOne(u64 out[5])
{
    out[0] = 1;
    out[1] = out[2] = out[3] = out[4] = 0;
}

void
feCopy(u64 out[5], const u64 a[5])
{
    std::memcpy(out, a, 5 * sizeof(u64));
}

void
feAdd(u64 out[5], const u64 a[5], const u64 b[5])
{
    for (int i = 0; i < 5; ++i)
        out[i] = a[i] + b[i];
}

/** out = a - b, with a 2p bias so limbs never underflow. */
void
feSub(u64 out[5], const u64 a[5], const u64 b[5])
{
    // 2p in radix-51: limb0 = 2^52-38, limbs 1..4 = 2^52-2.
    out[0] = a[0] + 0xfffffffffffdaull - b[0];
    out[1] = a[1] + 0xffffffffffffeull - b[1];
    out[2] = a[2] + 0xffffffffffffeull - b[2];
    out[3] = a[3] + 0xffffffffffffeull - b[3];
    out[4] = a[4] + 0xffffffffffffeull - b[4];
}

/** Carry limbs back under 2^51 (+epsilon); keeps values loosely reduced. */
void
feCarry(u64 a[5])
{
    u64 c;
    c = a[0] >> 51; a[0] &= kMask51; a[1] += c;
    c = a[1] >> 51; a[1] &= kMask51; a[2] += c;
    c = a[2] >> 51; a[2] &= kMask51; a[3] += c;
    c = a[3] >> 51; a[3] &= kMask51; a[4] += c;
    c = a[4] >> 51; a[4] &= kMask51; a[0] += 19 * c;
    c = a[0] >> 51; a[0] &= kMask51; a[1] += c;
}

void
feMul(u64 out[5], const u64 a[5], const u64 b[5])
{
    const u128 a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
    const u64 b0 = b[0], b1 = b[1], b2 = b[2], b3 = b[3], b4 = b[4];
    // 19-fold the limb products that wrap past 2^255.
    const u64 b1_19 = 19 * b1, b2_19 = 19 * b2, b3_19 = 19 * b3,
              b4_19 = 19 * b4;

    u128 r0 = a0 * b0 + a1 * b4_19 + a2 * b3_19 + a3 * b2_19 + a4 * b1_19;
    u128 r1 = a0 * b1 + a1 * b0 + a2 * b4_19 + a3 * b3_19 + a4 * b2_19;
    u128 r2 = a0 * b2 + a1 * b1 + a2 * b0 + a3 * b4_19 + a4 * b3_19;
    u128 r3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + a4 * b4_19;
    u128 r4 = a0 * b4 + a1 * b3 + a2 * b2 + a3 * b1 + a4 * b0;

    u64 c;
    u64 t0 = u64(r0) & kMask51; c = u64(r0 >> 51);
    r1 += c;
    u64 t1 = u64(r1) & kMask51; c = u64(r1 >> 51);
    r2 += c;
    u64 t2 = u64(r2) & kMask51; c = u64(r2 >> 51);
    r3 += c;
    u64 t3 = u64(r3) & kMask51; c = u64(r3 >> 51);
    r4 += c;
    u64 t4 = u64(r4) & kMask51; c = u64(r4 >> 51);
    t0 += 19 * c;
    c = t0 >> 51; t0 &= kMask51;
    t1 += c;

    out[0] = t0; out[1] = t1; out[2] = t2; out[3] = t3; out[4] = t4;
}

void
feSq(u64 out[5], const u64 a[5])
{
    feMul(out, a, a);
}

/** out = a^(2^count) by repeated squaring. */
void
feSqN(u64 out[5], const u64 a[5], int count)
{
    feCopy(out, a);
    for (int i = 0; i < count; ++i)
        feSq(out, out);
}

/** Shared prefix of the inversion/sqrt chains: a^(2^250 - 1). */
void
fePow250m1(u64 out[5], const u64 a[5], u64 *t0_out /* a^11 */)
{
    u64 t0[5], t1[5], t2[5], t3[5];
    feSq(t0, a);                  // 2
    feSq(t1, t0);
    feSq(t1, t1);                 // 8
    feMul(t1, a, t1);             // 9
    feMul(t0, t0, t1);            // 11
    feSq(t2, t0);                 // 22
    feMul(t1, t1, t2);            // 31 = 2^5 - 1
    feSqN(t2, t1, 5);             // 2^10 - 2^5
    feMul(t1, t2, t1);            // 2^10 - 1
    feSqN(t2, t1, 10);            // 2^20 - 2^10
    feMul(t2, t2, t1);            // 2^20 - 1
    feSqN(t3, t2, 20);            // 2^40 - 2^20
    feMul(t2, t3, t2);            // 2^40 - 1
    feSqN(t2, t2, 10);            // 2^50 - 2^10
    feMul(t1, t2, t1);            // 2^50 - 1
    feSqN(t2, t1, 50);            // 2^100 - 2^50
    feMul(t2, t2, t1);            // 2^100 - 1
    feSqN(t3, t2, 100);           // 2^200 - 2^100
    feMul(t2, t3, t2);            // 2^200 - 1
    feSqN(t2, t2, 50);            // 2^250 - 2^50
    feMul(out, t2, t1);           // 2^250 - 1
    if (t0_out)
        feCopy(t0_out, t0);
}

/** out = a^(p-2) = a^-1 (Fermat). */
void
feInvert(u64 out[5], const u64 a[5])
{
    u64 t0[5], t1[5];
    fePow250m1(t1, a, t0);        // a^(2^250-1), t0 = a^11
    feSqN(t1, t1, 5);             // 2^255 - 2^5
    feMul(out, t1, t0);           // 2^255 - 21 = p - 2
}

/** out = a^((p-5)/8) = a^(2^252 - 3), the decompression root helper. */
void
fePow22523(u64 out[5], const u64 a[5])
{
    u64 t1[5];
    fePow250m1(t1, a, nullptr);   // 2^250 - 1
    feSqN(t1, t1, 2);             // 2^252 - 4
    feMul(out, t1, a);            // 2^252 - 3
}

/** Canonical little-endian serialization (fully reduced mod p). */
void
feToBytes(uint8_t out[32], const u64 in[5])
{
    u64 t[5];
    feCopy(t, in);
    feCarry(t);
    feCarry(t);
    // q = 1 iff t >= p; then t mod p = low 255 bits of t + 19q.
    u64 q = (t[0] + 19) >> 51;
    q = (t[1] + q) >> 51;
    q = (t[2] + q) >> 51;
    q = (t[3] + q) >> 51;
    q = (t[4] + q) >> 51;
    t[0] += 19 * q;
    u64 c;
    c = t[0] >> 51; t[0] &= kMask51; t[1] += c;
    c = t[1] >> 51; t[1] &= kMask51; t[2] += c;
    c = t[2] >> 51; t[2] &= kMask51; t[3] += c;
    c = t[3] >> 51; t[3] &= kMask51; t[4] += c;
    t[4] &= kMask51; // drop the 2^255 wrap

    const u64 lo0 = t[0] | (t[1] << 51);
    const u64 lo1 = (t[1] >> 13) | (t[2] << 38);
    const u64 lo2 = (t[2] >> 26) | (t[3] << 25);
    const u64 lo3 = (t[3] >> 39) | (t[4] << 12);
    std::memcpy(out, &lo0, 8);
    std::memcpy(out + 8, &lo1, 8);
    std::memcpy(out + 16, &lo2, 8);
    std::memcpy(out + 24, &lo3, 8);
}

void
feFromBytes(u64 out[5], const uint8_t in[32])
{
    u64 w0, w1, w2, w3;
    std::memcpy(&w0, in, 8);
    std::memcpy(&w1, in + 8, 8);
    std::memcpy(&w2, in + 16, 8);
    std::memcpy(&w3, in + 24, 8);
    out[0] = w0 & kMask51;
    out[1] = ((w0 >> 51) | (w1 << 13)) & kMask51;
    out[2] = ((w1 >> 38) | (w2 << 26)) & kMask51;
    out[3] = ((w2 >> 25) | (w3 << 39)) & kMask51;
    out[4] = (w3 >> 12) & kMask51; // bit 255 (the sign bit) dropped
}

bool
feIsZero(const u64 a[5])
{
    uint8_t bytes[32];
    feToBytes(bytes, a);
    uint8_t acc = 0;
    for (int i = 0; i < 32; ++i)
        acc |= bytes[i];
    return acc == 0;
}

bool
feIsNegative(const u64 a[5])
{
    uint8_t bytes[32];
    feToBytes(bytes, a);
    return (bytes[0] & 1) != 0;
}

void
feNeg(u64 out[5], const u64 a[5])
{
    u64 zero[5];
    feZero(zero);
    feSub(out, zero, a);
    feCarry(out);
}

/** out = mask ? a : out, with @p mask all-ones or zero (no branch). */
void
feCmov(u64 out[5], const u64 a[5], u64 mask)
{
    for (int i = 0; i < 5; ++i)
        out[i] = (out[i] & ~mask) | (a[i] & mask);
}

} // namespace

Scalar
randomScalar(Prg &rng)
{
    Scalar s;
    const Label a = rng.nextLabel();
    const Label b = rng.nextLabel();
    a.toBytes(s.bytes);
    b.toBytes(s.bytes + 16);
    s.bytes[31] &= 0x7f; // < 2^255
    return s;
}

Point::Point()
{
    feZero(X_.v);
    feOne(Y_.v);
    feOne(Z_.v);
    feZero(T_.v);
}

const Point &
Point::base()
{
    static const Point b = [] {
        Point p;
        feCopy(p.X_.v, kBaseX);
        feCopy(p.Y_.v, kBaseY);
        feOne(p.Z_.v);
        feCopy(p.T_.v, kBaseT);
        return p;
    }();
    return b;
}

Point
Point::add(const Point &o) const
{
    // Complete extended-coordinate addition (RFC 8032 §5.1.4).
    Point r;
    u64 a[5], b[5], c[5], d[5], e[5], f[5], g[5], h[5], t[5];
    feSub(a, Y_.v, X_.v);
    feCarry(a);
    feSub(t, o.Y_.v, o.X_.v);
    feCarry(t);
    feMul(a, a, t);               // A = (Y1-X1)(Y2-X2)
    feAdd(b, Y_.v, X_.v);
    feAdd(t, o.Y_.v, o.X_.v);
    feMul(b, b, t);               // B = (Y1+X1)(Y2+X2)
    feMul(c, T_.v, kD2);
    feMul(c, c, o.T_.v);          // C = 2d T1 T2
    feMul(d, Z_.v, o.Z_.v);
    feAdd(d, d, d);               // D = 2 Z1 Z2
    feSub(e, b, a);
    feCarry(e);                   // E = B - A
    feSub(f, d, c);
    feCarry(f);                   // F = D - C
    feAdd(g, d, c);               // G = D + C
    feAdd(h, b, a);               // H = B + A
    feMul(r.X_.v, e, f);
    feMul(r.Y_.v, g, h);
    feMul(r.T_.v, e, h);
    feMul(r.Z_.v, f, g);
    return r;
}

Point
Point::sub(const Point &o) const
{
    Point neg = o;
    feNeg(neg.X_.v, o.X_.v);
    feNeg(neg.T_.v, o.T_.v);
    return add(neg);
}

Point
Point::dbl() const
{
    // RFC 8032 §5.1.4 doubling.
    Point r;
    u64 a[5], b[5], c[5], e[5], f[5], g[5], h[5], t[5];
    feSq(a, X_.v);                // A = X1^2
    feSq(b, Y_.v);                // B = Y1^2
    feSq(c, Z_.v);
    feAdd(c, c, c);               // C = 2 Z1^2
    feAdd(h, a, b);               // H = A + B
    feAdd(t, X_.v, Y_.v);
    feCarry(t);
    feSq(t, t);
    feSub(e, h, t);
    feCarry(e);                   // E = H - (X1+Y1)^2
    feSub(g, a, b);
    feCarry(g);                   // G = A - B
    feAdd(f, c, g);               // F = C + G
    feMul(r.X_.v, e, f);
    feMul(r.Y_.v, g, h);
    feMul(r.T_.v, e, h);
    feMul(r.Z_.v, f, g);
    return r;
}

Point
Point::mul(const Scalar &k, const Point &p)
{
    // Fixed 4-bit window: 64 windows of 4 doublings and one addition,
    // whatever the scalar. The only data-dependent step, fetching
    // table[nibble], reads every entry and keeps one by mask, so
    // neither a branch nor an address depends on a secret bit.
    Point table[16]; // table[i] = i*P, table[0] the identity
    table[1] = p;
    for (int i = 2; i < 16; ++i)
        table[i] = (i % 2 == 0) ? table[i / 2].dbl() : table[i - 1].add(p);

    Point r;
    for (int window = 63; window >= 0; --window) {
        if (window != 63)
            r = r.dbl().dbl().dbl().dbl();
        const u64 nibble = (k.bytes[window / 2] >> (4 * (window % 2))) & 0xf;
        Point sel;
        for (u64 i = 0; i < 16; ++i) {
            // mask = all-ones iff i == nibble; (d - 1) >> 63 is 1 only
            // for d == 0 since d = i ^ nibble < 16.
            const u64 mask = u64(0) - (((i ^ nibble) - 1) >> 63);
            feCmov(sel.X_.v, table[i].X_.v, mask);
            feCmov(sel.Y_.v, table[i].Y_.v, mask);
            feCmov(sel.Z_.v, table[i].Z_.v, mask);
            feCmov(sel.T_.v, table[i].T_.v, mask);
        }
        r = r.add(sel);
    }
    return r;
}

void
Point::toBytes(uint8_t out[kPointBytes]) const
{
    u64 zinv[5], x[5], y[5];
    feInvert(zinv, Z_.v);
    feMul(x, X_.v, zinv);
    feMul(y, Y_.v, zinv);
    feToBytes(out, y);
    out[31] |= uint8_t(feIsNegative(x) ? 0x80 : 0);
}

bool
Point::fromBytes(const uint8_t in[kPointBytes], Point &out)
{
    u64 y[5], y2[5], u[5], v[5], x[5], t[5], check[5], one[5];
    feFromBytes(y, in);
    const bool sign = (in[31] & 0x80) != 0;

    feSq(y2, y);
    feOne(one);
    feSub(u, y2, one);
    feCarry(u);                   // u = y^2 - 1
    feMul(v, y2, kD);
    feAdd(v, v, one);
    feCarry(v);                   // v = d y^2 + 1

    // Candidate root x = u v^3 (u v^7)^((p-5)/8)  (RFC 8032 §5.1.3).
    u64 v3[5], v7[5];
    feSq(v3, v);
    feMul(v3, v3, v);             // v^3
    feSq(v7, v3);
    feMul(v7, v7, v);             // v^7
    feMul(t, u, v7);
    fePow22523(t, t);
    feMul(x, u, v3);
    feMul(x, x, t);

    feSq(check, x);
    feMul(check, check, v);       // v x^2
    u64 diff[5], sum[5];
    feSub(diff, check, u);
    feCarry(diff);
    feAdd(sum, check, u);
    feCarry(sum);
    if (!feIsZero(diff)) {
        if (!feIsZero(sum))
            return false;         // not a square: not on the curve
        feMul(x, x, kSqrtM1);
    }

    if (feIsZero(x) && sign)
        return false;             // -0 is not canonical
    if (feIsNegative(x) != sign)
        feNeg(x, x);

    feCopy(out.X_.v, x);
    feCopy(out.Y_.v, y);
    feOne(out.Z_.v);
    feMul(out.T_.v, x, y);
    return true;
}

bool
Point::equals(const Point &o) const
{
    uint8_t a[kPointBytes], b[kPointBytes];
    toBytes(a);
    o.toBytes(b);
    return std::memcmp(a, b, kPointBytes) == 0;
}

bool
Point::isIdentity() const
{
    return equals(Point());
}

} // namespace ec
} // namespace haac
