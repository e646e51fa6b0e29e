/**
 * @file
 * Unit tests for the crypto substrate: AES-128 against FIPS-197
 * vectors, label algebra, PRG determinism, the Half-Gate hashes, and
 * the base-OT group arithmetic (Curve25519) plus the OT-extension
 * bit transpose.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "crypto/aes128.h"
#include "crypto/bitmatrix.h"
#include "crypto/curve25519.h"
#include "crypto/hash.h"
#include "crypto/label.h"
#include "crypto/prg.h"

namespace haac {
namespace {

std::array<uint8_t, 16>
fromHex(const std::string &hex)
{
    std::array<uint8_t, 16> out{};
    for (size_t i = 0; i < 16; ++i)
        out[i] = uint8_t(std::stoul(hex.substr(2 * i, 2), nullptr, 16));
    return out;
}

TEST(Aes128, Fips197AppendixCVector)
{
    const auto key = fromHex("000102030405060708090a0b0c0d0e0f");
    const auto pt = fromHex("00112233445566778899aabbccddeeff");
    const auto want = fromHex("69c4e0d86a7b0430d8cdb78070b4c55a");
    Aes128 aes(key.data());
    uint8_t ct[16];
    aes.encryptBlock(pt.data(), ct);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(ct[i], want[i]) << "byte " << i;
}

TEST(Aes128, Fips197AppendixBVector)
{
    const auto key = fromHex("2b7e151628aed2a6abf7158809cf4f3c");
    const auto pt = fromHex("3243f6a8885a308d313198a2e0370734");
    const auto want = fromHex("3925841d02dc09fbdc118597196a0b32");
    Aes128 aes(key.data());
    uint8_t ct[16];
    aes.encryptBlock(pt.data(), ct);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(ct[i], want[i]) << "byte " << i;
}

TEST(Aes128, KeyScheduleFirstExpansionWord)
{
    // FIPS-197 Appendix A.1: w4 = a0fafe17 for the Appendix B key.
    const auto key = fromHex("2b7e151628aed2a6abf7158809cf4f3c");
    Aes128 aes(key.data());
    const auto &rk = aes.roundKeys();
    EXPECT_EQ(rk[16], 0xa0);
    EXPECT_EQ(rk[17], 0xfa);
    EXPECT_EQ(rk[18], 0xfe);
    EXPECT_EQ(rk[19], 0x17);
}

TEST(Aes128, KeyScheduleLastRoundKey)
{
    // FIPS-197 Appendix A.1: w40..w43 for the Appendix B key.
    const auto key = fromHex("2b7e151628aed2a6abf7158809cf4f3c");
    const auto want = fromHex("d014f9a8c9ee2589e13f0cc8b6630ca6");
    Aes128 aes(key.data());
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(aes.roundKeys()[16 * kAesRounds + i], want[i])
            << "byte " << i;
}

TEST(Aes128, FusedRekeyedMmoMatchesExpandedKeys)
{
    // The fused kernel against an Aes128 per key, on keys and blocks
    // drawn without AES.
    uint64_t ctr = 0;
    const auto next = [&ctr] {
        const uint64_t lo = splitmix64(ctr++);
        return Label(lo, splitmix64(ctr++));
    };
    const auto mmo = [](const Label &key, const Label &x) {
        return Aes128(key).encryptBlock(x) ^ x;
    };
    for (int round = 0; round < 200; ++round) {
        const Label keys[2] = {next(), next()};
        const Label in[4] = {next(), next(), next(), next()};
        Label one[1], two[2], four[4];
        aesMmoRekeyed<1, 1>({keys[0]}, {in[0]}, one);
        aesMmoRekeyed<2, 1>(keys, {in[0], in[2]}, two);
        aesMmoRekeyed<2, 2>(keys, in, four);
        EXPECT_EQ(one[0], mmo(keys[0], in[0]));
        EXPECT_EQ(two[0], mmo(keys[0], in[0]));
        EXPECT_EQ(two[1], mmo(keys[1], in[2]));
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(four[i], mmo(keys[i / 2], in[i])) << "block " << i;
    }
}

TEST(Aes128, EncryptIsDeterministicAndKeyDependent)
{
    const auto key1 = fromHex("000102030405060708090a0b0c0d0e0f");
    const auto key2 = fromHex("000102030405060708090a0b0c0d0e1f");
    Aes128 a(key1.data()), b(key1.data()), c(key2.data());
    Label x(0x1234, 0x5678);
    EXPECT_EQ(a.encryptBlock(x), b.encryptBlock(x));
    EXPECT_NE(a.encryptBlock(x), c.encryptBlock(x));
}

TEST(Aes128, LabelConstructorMatchesByteConstructor)
{
    Label key(0x0706050403020100ull, 0x0f0e0d0c0b0a0908ull);
    uint8_t bytes[16];
    key.toBytes(bytes);
    Aes128 a(key), b(bytes);
    Label x(42, 43);
    EXPECT_EQ(a.encryptBlock(x), b.encryptBlock(x));
}

TEST(Label, XorAlgebra)
{
    Label a(0xdeadbeef, 0xfeedface);
    Label b(0x12345678, 0x9abcdef0);
    EXPECT_EQ(a ^ b, b ^ a);
    EXPECT_EQ((a ^ b) ^ b, a);
    EXPECT_TRUE((a ^ a).isZero());
}

TEST(Label, LsbManipulation)
{
    Label a(0x2, 0x0);
    EXPECT_FALSE(a.lsb());
    a.setLsb(true);
    EXPECT_TRUE(a.lsb());
    EXPECT_EQ(a.lo, 0x3u);
    a.setLsb(false);
    EXPECT_EQ(a.lo, 0x2u);
}

TEST(Label, ByteRoundTrip)
{
    Label a(0x1122334455667788ull, 0x99aabbccddeeff00ull);
    uint8_t buf[16];
    a.toBytes(buf);
    EXPECT_EQ(Label::fromBytes(buf), a);
}

TEST(Label, HexFormat)
{
    Label a(0x1ull, 0x0ull);
    EXPECT_EQ(a.toHex(),
              "00000000000000000000000000000001");
}

TEST(Prg, DeterministicPerSeed)
{
    Prg a(123), b(123), c(124);
    for (int i = 0; i < 32; ++i) {
        Label la = a.nextLabel();
        EXPECT_EQ(la, b.nextLabel());
        EXPECT_NE(la, c.nextLabel());
    }
}

TEST(Prg, LabelsLookRandom)
{
    Prg prg(7);
    std::set<uint64_t> seen;
    int ones = 0;
    for (int i = 0; i < 256; ++i) {
        Label l = prg.nextLabel();
        seen.insert(l.lo);
        ones += int(l.lo & 1);
    }
    EXPECT_EQ(seen.size(), 256u);
    EXPECT_GT(ones, 80);
    EXPECT_LT(ones, 176);
}

TEST(Prg, RangeIsUnbiasedBounds)
{
    Prg prg(9);
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = prg.nextRange(10);
        EXPECT_LT(v, 10u);
    }
}

TEST(HalfGateHash, RekeyedMatchesHasherObject)
{
    Label x(0xabc, 0xdef);
    for (uint64_t tweak : {0ull, 1ull, 77ull, 1ull << 40}) {
        RekeyedHasher h(tweak);
        EXPECT_EQ(h(x), hashRekeyed(x, tweak));
    }
}

TEST(HalfGateHash, PairMatchesPerTweakHashes)
{
    const Label x[4] = {Label(1, 2), Label(3, 4), Label(5, 6), Label(7, 8)};
    for (uint64_t gate : {0ull, 9ull, 1ull << 40}) {
        const uint64_t j0 = 2 * gate, j1 = 2 * gate + 1;
        Label garble[4], eval[2];
        hashRekeyedPair<2>(j0, j1, x, garble);
        hashRekeyedPair<1>(j0, j1, {x[0], x[2]}, eval);
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(garble[i], hashRekeyed(x[i], i < 2 ? j0 : j1));
        EXPECT_EQ(eval[0], hashRekeyed(x[0], j0));
        EXPECT_EQ(eval[1], hashRekeyed(x[2], j1));
    }
}

TEST(HalfGateHash, TweakSeparatesOutputs)
{
    Label x(1, 2);
    EXPECT_NE(hashRekeyed(x, 0), hashRekeyed(x, 1));
    EXPECT_NE(hashRekeyed(x, 2), hashRekeyed(x, 3));
}

TEST(HalfGateHash, InputSeparatesOutputs)
{
    Label x(1, 2), y(1, 3);
    EXPECT_NE(hashRekeyed(x, 5), hashRekeyed(y, 5));
}

TEST(HalfGateHash, FixedKeyDiffersFromRekeyed)
{
    FixedKeyHasher fixed;
    Label x(11, 22);
    EXPECT_NE(fixed(x, 3), hashRekeyed(x, 3));
    EXPECT_EQ(fixed(x, 3), fixed(x, 3));
    EXPECT_NE(fixed(x, 3), fixed(x, 4));
}

// ---------------------------------------------------------------------------
// Bit-identity pins. The constants were produced by the byte-wise
// FIPS-197 implementation; the AES-NI kernels and the portable path must
// both reproduce them exactly, since garbled tables, OT messages and
// link tables cross the wire between hosts that may take either path.
// ---------------------------------------------------------------------------

struct HashPin
{
    uint64_t lo, hi, tweak;
    const char *hex;
};

TEST(BitIdentity, RekeyedHashPins)
{
    static const HashPin pins[] = {
        {0x0000000000000000ull, 0x0000000000000000ull, 0x0ull,
         "ecd502f237425c2e494051dce709eab1"},
        {0x0000000000000abcull, 0x0000000000000defull, 0x1ull,
         "08373a05970aabd0bd2c554567a92f03"},
        {0x0123456789abcdefull, 0xfedcba9876543210ull, 0x4dull,
         "de8cfdc55471d22c1542fb6d15459c75"},
        {0xffffffffffffffffull, 0xffffffffffffffffull,
         0xfffffffffffffffeull, "55ef2e12c3810768a615075cd22c7881"},
    };
    for (const HashPin &p : pins) {
        const Label x(p.lo, p.hi);
        EXPECT_EQ(hashRekeyed(x, p.tweak).toHex(), p.hex)
            << "tweak " << p.tweak;
        EXPECT_EQ(RekeyedHasher(p.tweak)(x).toHex(), p.hex)
            << "tweak " << p.tweak;
    }
}

TEST(BitIdentity, FixedKeyHashPins)
{
    static const HashPin pins[] = {
        {0x0000000000000000ull, 0x0000000000000000ull, 0x0ull,
         "3c558af8a0f1136d8fb3e768525d771e"},
        {0x0000000000000abcull, 0x0000000000000defull, 0x1ull,
         "c98afdf18b8babb176b605ad328d82f5"},
        {0x0123456789abcdefull, 0xfedcba9876543210ull, 0x4dull,
         "3206925f126c2cbe492c20a6b105d3c0"},
        {0xffffffffffffffffull, 0xffffffffffffffffull,
         0xfffffffffffffffeull, "6cc1fa13d68d5e7a4fb54c61eb5d108c"},
    };
    const FixedKeyHasher fixed;
    for (const HashPin &p : pins)
        EXPECT_EQ(fixed(Label(p.lo, p.hi), p.tweak).toHex(), p.hex)
            << "tweak " << p.tweak;
}

TEST(BitIdentity, PrgPins)
{
    Prg seeded(123);
    EXPECT_EQ(seeded.nextLabel().toHex(),
              "625fc8b1c593382b00b110375ad59229");
    EXPECT_EQ(seeded.nextLabel().toHex(),
              "4537880d5ce41338240698ee623de03e");
    EXPECT_EQ(seeded.nextLabel().toHex(),
              "fbb31de417e5959194261a945901fdc9");
    Prg keyed(Label(0x0706050403020100ull, 0x0f0e0d0c0b0a0908ull));
    EXPECT_EQ(keyed.nextLabel().toHex(),
              "d67885aa080a19826d05c8502e3bbebf");
    EXPECT_EQ(keyed.nextLabel().toHex(),
              "cd26eb1fa31398655a419e37b9d79c0a");
    EXPECT_EQ(keyed.nextLabel().toHex(),
              "098ffcb9339d6a2ee475a0acadf1d2ed");
}

// ---------------------------------------------------------------------------
// Curve25519 (the base-OT group)
// ---------------------------------------------------------------------------

std::string
pointHex(const ec::Point &p)
{
    uint8_t bytes[ec::kPointBytes];
    p.toBytes(bytes);
    static const char digits[] = "0123456789abcdef";
    std::string s;
    for (uint8_t b : bytes) {
        s += digits[b >> 4];
        s += digits[b & 0xf];
    }
    return s;
}

TEST(Curve25519, BasePointCompressesToRfc8032Encoding)
{
    // The canonical Ed25519 base point: y = 4/5 mod p, x even.
    EXPECT_EQ(pointHex(ec::Point::base()),
              "58666666666666666666666666666666"
              "66666666666666666666666666666666");
}

TEST(Curve25519, GroupOrderAnnihilatesTheBasePoint)
{
    // ell = 2^252 + 27742317777372353535851937790883648493,
    // little-endian.
    const uint8_t ell[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12,
                             0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9,
                             0xde, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00,
                             0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                             0x00, 0x00, 0x00, 0x10};
    ec::Scalar s;
    std::memcpy(s.bytes, ell, sizeof(ell));
    EXPECT_TRUE(ec::Point::mul(s, ec::Point::base()).isIdentity());
}

TEST(Curve25519, DiffieHellmanAgrees)
{
    Prg rng(0xec25519);
    for (int round = 0; round < 4; ++round) {
        const ec::Scalar a = ec::randomScalar(rng);
        const ec::Scalar b = ec::randomScalar(rng);
        const ec::Point aG = ec::Point::mul(a, ec::Point::base());
        const ec::Point bG = ec::Point::mul(b, ec::Point::base());
        EXPECT_TRUE(ec::Point::mul(b, aG).equals(ec::Point::mul(a, bG)));
        EXPECT_FALSE(aG.equals(bG));
    }
}

TEST(Curve25519, CompressDecompressRoundtrips)
{
    Prg rng(77);
    for (int round = 0; round < 8; ++round) {
        const ec::Scalar k = ec::randomScalar(rng);
        const ec::Point p = ec::Point::mul(k, ec::Point::base());
        uint8_t bytes[ec::kPointBytes];
        p.toBytes(bytes);
        ec::Point q;
        ASSERT_TRUE(ec::Point::fromBytes(bytes, q));
        EXPECT_TRUE(q.equals(p));
    }
}

TEST(Curve25519, AddSubCancel)
{
    Prg rng(5);
    const ec::Point p =
        ec::Point::mul(ec::randomScalar(rng), ec::Point::base());
    const ec::Point q =
        ec::Point::mul(ec::randomScalar(rng), ec::Point::base());
    EXPECT_TRUE(p.add(q).sub(q).equals(p));
    EXPECT_TRUE(p.sub(p).isIdentity());
    EXPECT_TRUE(p.add(ec::Point()).equals(p));
    EXPECT_TRUE(p.dbl().equals(p.add(p)));
}

TEST(Curve25519, RejectsNonCurveEncodings)
{
    // y = 2 gives a non-square x^2 candidate on this curve.
    uint8_t bad[ec::kPointBytes] = {2};
    ec::Point p;
    EXPECT_FALSE(ec::Point::fromBytes(bad, p));
}

/** Scalar @p i of the pinned set: four splitmix64 words, no AES. */
ec::Scalar
pinnedScalar(uint64_t i)
{
    ec::Scalar s;
    for (uint64_t w = 0; w < 4; ++w) {
        const uint64_t v = splitmix64(0x5ca1a7ull * 4 + i * 4 + w);
        std::memcpy(s.bytes + 8 * w, &v, 8);
    }
    return s;
}

/** Compressed k*B and k*P, P the decoding of kPinnedPoint. */
struct MulPin
{
    const char *base;
    const char *point;
};

/** P = pinnedScalar(1000) * B, a point of no special structure. */
constexpr const char *kPinnedPoint =
    "18c9a983a80a28d2dcc2dbd97c6f39caec43a3e613bfeca846907be3570a7131";

ec::Point
pinnedPoint()
{
    uint8_t bytes[ec::kPointBytes];
    for (size_t i = 0; i < ec::kPointBytes; ++i)
        bytes[i] = uint8_t(
            std::stoul(std::string(kPinnedPoint + 2 * i, 2), nullptr, 16));
    ec::Point p;
    EXPECT_TRUE(ec::Point::fromBytes(bytes, p));
    return p;
}

TEST(Curve25519, MulMatchesPinnedOutputs)
{
    // Computed with the double-and-add multiplier the windowed one
    // replaced; both must agree on every scalar.
    static const MulPin pins[32] = {
        {"bb86f8d18caf71e29c6b9cc0322869b6cbfb4ed2133fbd50af86b86052ccc28d",
         "8b4b4cdb2bb3326f886039b631dc07c3c0d1d30af63bdee5c89f359800e944e8"},
        {"4c55b74eb282b29e0e3f49b9963cec8bc3fd63fc3ec3f6b93fd58220b998a141",
         "a91d2815467f0cc954bd82421cb0e93159ba77e785e75323be8e7c9b592cdcaf"},
        {"e6bf952835980006cf75d4843f04b8a4d29f3b154c64b04feaef250d00e4b76a",
         "c4b68b6c732e500c44d6539e9215266fe1108c6d8434a35a62101df273817127"},
        {"18d3d4b44b9ed27c34bec311a213a4c8463dba9c3feb9dcd993dd81926614d76",
         "380dd7484e0bc5933c53e933d7db090f4cc4b55c2b52be16df4a5e37cf915229"},
        {"7242a93441358dbcf89b4d64c627a41a874d13ff16e22c21defbea169e6fe8ed",
         "0f14983294b97722f5c102f35043644a0c9c517cb5d3b8cd80b050e6f0754548"},
        {"857c8f6b49bf01b65345c504388704b2e91806fdbf166af3473619b22b511db9",
         "32795c07480d4d46ab6a54709bb6233bcdab06c97d735091b3a8229d8866eeba"},
        {"ed3f39b6ca2a83f8d5b07c723f0e932e0d386f99ed2173c4920fde74926e4098",
         "d7f8dc1af60d5b13c1dfc0e93040f3a9992f69a4d12ae281441a80e9ae283877"},
        {"8b82b0b0a8aba26ac7b7cfc56a12fd30c09ddff895ccea479aaffaa15db233c2",
         "02c16abc9bfd66018e2281a43157a740768e13a83bf95111563290a84682ab1e"},
        {"78e1b69258a2b558a5eb4586ea8a037204fde376b506cbfd036caf4ec62c42d4",
         "b9b4c940d133add6ddd67aa3464fe8096fc852aca02b6e97a87a05ce0a4d0653"},
        {"71973b4570cd43884a5c6caa1e6ad88e5cda528d1174a14cd2159758bfe696df",
         "25d0af49578c1b7ef0dc166b3d0f948dfec9997ede83fde10569cd794ba48865"},
        {"74b5d7e6b917c6459872f70d5faf7724ca7b73f472fc17362d670272826116d5",
         "fa4e1d9408eabf6090c85916ae5df103b892a961e8316c82fd7275bb30692121"},
        {"3f222d1a387632a17629120a8a3ae6a308250a7d1614633c4e98171f4a0a82fc",
         "ed23f569162121e8ac9839041bd4184e0e2168417360b0abf203751bded6d029"},
        {"e10a7382918f85f81f5e4340095cfae6f5bfeec813cca66d27bd5e8214c7d1a7",
         "68f23df4cad45847abc5158d9626feb83f94767bc6a9e4c50c3e30388cbc6f07"},
        {"baf4821ff753ae5e4563f8cf5a6e6b9da9188bbaaca5ed7705cd18fd2bb42c37",
         "a39473302f4d63779a11baafb45650c55d747036e08c744a6b146a22a00d1511"},
        {"d9e4d87df65688ee2b55643326fde126f10b2fa559b39f5b09ea034c9a223259",
         "4c82ba3a8c860504d6894780586797bf53aa01e6acc1aec9ce96ef64d3f93021"},
        {"b7e113190c468acacd1d0fbbcc3d14c27f01ed9649adc7cc0e6dc8f91e4eb701",
         "c5159d65bc39746d02b046833115a6890e728a0944891d28711df8cbecb6e919"},
        {"8c2c85a87a68a47f7d874133bb799aea150b4d8ab296e93f91cb3ad9f479c5ec",
         "c5757626a3388bf1e3ecb62f485945c066a2694ac3a3e27b348f1c6ae49bd640"},
        {"fb7ac27d8a267e147dc9c00bb2a88bc0a8336bbc89f783abe8c2d4361b91b2b2",
         "b7a9ae3e787b75beafc51d2444128d703fe83adc1c79650105f21b143ff9593d"},
        {"37924bd8f38e8811ce750897d9e2174e960d455ff3b116f23fc2ba4ac987d237",
         "c83f97e889c0e4d93d82270314088bb3e1950d83b25038497bf46aca1c93bf7e"},
        {"31e675575ba922c0dce890391f099ff86d07c005e9e5c45242b34b88500da215",
         "3bcbfb0ee28f08da122b0c2998f2656faed5513b5a71a9d06b6edd93705d1ade"},
        {"43757d9a3ae5defe27b1b0c480fb6138123f0d876b72cef5449b883a134e4b51",
         "2322dba90129665f44797d7f22e0ced1fbd7841409a416f1e14d272008786484"},
        {"936bf3b1d2a7680c68b6734745f76651daee436c94dbd2810cbf96990cd7e0d2",
         "bbe372d5606a45b525f5a4703d052d834b1881384e647769d21e2d811e3fc254"},
        {"27413398de75cf04826b5b486c93794ce6fb047d54bbe66d20143e8ddd0c7007",
         "4b62c81a4185b2308df3df69bd64a7e88053a4e6ffae1e21bde8ac57c39bccf9"},
        {"7e27d54cd49da8fd24efe6175e8eef82bd450a5745ba5bcdcfa8cc67b8adc8a3",
         "b63c15a3ef227352c1d9a1be61aac2268323ce620c78e3223759981830903766"},
        {"abf22c6f788bd310d44f27071a311ccb4c38739eb98398e053eda7b21624e159",
         "3b111ebae1fb199021f1ddba52fe2dcef406776a22b08ef9a731532833958e70"},
        {"8cdf42fea0dceb6c8399b554262121d64f6da6127144a1340dc51cd02756fa31",
         "58725124252b082500103325f7871a4df213dc6144610416c052ef65593c7542"},
        {"ce3a8a4543261a52bb16f1cd240590bd8f48e392964e6c56b2a5ddb7925c6ffe",
         "08ad27945b66e4c4027b524e810634e0a05635fd601dc2ad3ecc379f052d5b24"},
        {"ea12838ce6e9855269b7c2377e1f85b5d6dc45f84fb60ade188837b1892057b6",
         "7608f8d9e2fbac0e50540c31b31b0058d48820f3a1c79e1fdddef19179a05348"},
        {"b4070e2ef43809dfd43976fa4b033e64152fc3e4b7f842473b90883efef33c93",
         "78531896b73c0e371ad940eb9fc286dbf2282f5af31f096982e3c4eaef897495"},
        {"1b0a305d1ac20b0131560b664a686e962ede7c613bf490d1b7929f2ba6dbfc5a",
         "e5f99c5b6dcda0ca1de1d7e07951558e449e69fb122f427cca7a0ca85b7cbdf0"},
        {"73b1fbe798475577ebe7259adaedee86e60fa163148a57fb456ae4ee106c3b9f",
         "abbb6e1d65552782e31025c23cff4f2e0c13974b0f570027e143a9e09490f20c"},
        {"c98cf2f5a10fe56da098c14d6c510d1ccb90514b139207c929ad3585a474f3c2",
         "4f8bb3564d87aae2cc0f20adf2380dcd652da5b5ad2c98dca01748ac8b301e06"},
    };
    const ec::Point p = pinnedPoint();
    for (uint64_t i = 0; i < 32; ++i) {
        const ec::Scalar k = pinnedScalar(i);
        EXPECT_EQ(pointHex(ec::Point::mul(k, ec::Point::base())),
                  pins[i].base)
            << "scalar " << i;
        EXPECT_EQ(pointHex(ec::Point::mul(k, p)), pins[i].point)
            << "scalar " << i;
    }
}

TEST(Curve25519, MulEdgeScalars)
{
    const ec::Point p = pinnedPoint();
    ec::Scalar zero;
    EXPECT_TRUE(ec::Point::mul(zero, ec::Point::base()).isIdentity());
    EXPECT_TRUE(ec::Point::mul(zero, p).isIdentity());

    ec::Scalar one, fifteen, sixteen, top, all;
    one.bytes[0] = 1;
    fifteen.bytes[0] = 15;
    sixteen.bytes[0] = 16;
    top.bytes[31] = 0x80; // 2^255
    std::memset(all.bytes, 0xff, sizeof(all.bytes)); // 2^256 - 1
    EXPECT_TRUE(ec::Point::mul(one, p).equals(p));
    const struct
    {
        const ec::Scalar *k;
        MulPin want;
    } cases[] = {
        {&fifteen,
         {"df5c2eadc44c6d94a19a9aa118afe5ac3193d26401f76251f522ff042dfbcb92",
          "af9841ceae0398e59c50fe10017be72fd1807d7daf19a5a0cc0880097970666e"}},
        {&sixteen,
         {"eb2767c137ab7ad8279c078eff116ab0786ead3a2e0f989f72c37f82f2969670",
          "2228510f24cefbeb28f756532e5c80bee71c80c21592646589429b0b5551d5f5"}},
        {&top,
         {"6e4b94a41ca8bd8c8e68ae0970e953eea2824beb01692cfd821625e07f828b41",
          "314f8a899f6ca38dd56bd92c0952eb2024caf49fb5dc9120c681ce19e6f23d4a"}},
        {&all,
         {"db27fe4b7a4beb8c1b8c38a21e943a852304c9bb3035a5f36626b51162a68f9c",
          "122dd2222a94d5fab1978578597632971280883cbc8c5f1d3b5f17b71d9c0609"}},
    };
    for (const auto &c : cases) {
        EXPECT_EQ(pointHex(ec::Point::mul(*c.k, ec::Point::base())),
                  c.want.base);
        EXPECT_EQ(pointHex(ec::Point::mul(*c.k, p)), c.want.point);
    }
}

// ---------------------------------------------------------------------------
// Bit-matrix transpose (the OT-extension pivot)
// ---------------------------------------------------------------------------

TEST(BitMatrix, Transpose64MatchesNaive)
{
    Prg rng(41);
    uint64_t m[64], orig[64];
    for (auto &w : m)
        w = rng.nextU64();
    std::memcpy(orig, m, sizeof(m));
    transpose64(m);
    for (int r = 0; r < 64; ++r)
        for (int c = 0; c < 64; ++c)
            ASSERT_EQ((m[r] >> c) & 1, (orig[c] >> r) & 1)
                << "r=" << r << " c=" << c;
}

TEST(BitMatrix, Transpose128BlockMatchesNaive)
{
    // Two blocks with a deliberately non-contiguous column stride.
    constexpr size_t kBlocks = 2;
    constexpr size_t kStride = kBlocks * kLabelBytes + 3;
    Prg rng(42);
    std::vector<uint8_t> cols(128 * kStride);
    rng.nextBytes(cols.data(), cols.size());

    for (size_t b = 0; b < kBlocks; ++b) {
        Label rows[128];
        transpose128Block(cols.data() + b * kLabelBytes, kStride, rows);
        for (int r = 0; r < 128; ++r) {
            for (int c = 0; c < 128; ++c) {
                const size_t bit = b * 128 + r;
                const uint8_t byte =
                    cols[size_t(c) * kStride + bit / 8];
                const int expected = (byte >> (bit % 8)) & 1;
                const uint64_t word = c < 64 ? rows[r].lo : rows[r].hi;
                ASSERT_EQ((word >> (c % 64)) & 1, uint64_t(expected))
                    << "b=" << b << " r=" << r << " c=" << c;
            }
        }
    }
}

} // namespace
} // namespace haac
