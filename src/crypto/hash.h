/**
 * @file
 * The Half-Gate label hash H(x, j).
 *
 * HAAC uses the *re-keying* construction for security (Guo et al.,
 * CRYPTO'20): each hash call expands an AES key derived from the gate
 * tweak j (j = 2*gate_index or 2*gate_index+1) and computes a
 * Matyas-Meyer-Oseas compression, H(x, j) = AES_{k(j)}(x) ^ x. An AND
 * gate therefore costs the Garbler two key expansions and four AES
 * block encryptions, exactly the datapath in Fig. 2 of the paper.
 *
 * The key expansion runs on AES-NI where the CPU has it (the portable
 * path gives the same bits). hashRekeyed and hashRekeyedPair run on
 * aesMmoRekeyed, which derives each schedule in registers alongside the
 * blocks it encrypts; hashRekeyedPair hands it a whole AND gate at once.
 * RekeyedHasher keeps an expanded schedule for a tweak that hashes many
 * blocks.
 *
 * The cheaper but less secure *fixed-key* construction (one global key,
 * tweak folded into the input) is provided only to reproduce the
 * paper's measured 27.5% re-keying overhead.
 */
#ifndef HAAC_CRYPTO_HASH_H
#define HAAC_CRYPTO_HASH_H

#include <cstdint>

#include "crypto/aes128.h"
#include "crypto/label.h"

namespace haac {

/** Derive the AES key for tweak j (both halves carry j, domain-tagged). */
inline Label
tweakKey(uint64_t tweak)
{
    // Domain-separate the key space from PRG counters.
    return Label(tweak, tweak ^ 0x4841414354574b00ull); // "HAACTWK"
}

/**
 * Re-keyed Half-Gate hash: expand k(j), then MMO-compress x.
 *
 * This is the per-call form; when a gate hashes two labels under the
 * same tweak, use RekeyedHasher to share the expansion within the gate
 * (the hardware expands once per tweak, Fig. 2).
 */
Label hashRekeyed(const Label &x, uint64_t tweak);

/**
 * Both tweaks' hashes of one Half-Gate AND gate in one fused call. With
 * n = kPerTweak: out[i] = H(x[i], j0) for i < n and
 * out[n + i] = H(x[n + i], j1). Garbling is kPerTweak = 2 (two key
 * schedules, four blocks), evaluating kPerTweak = 1 (two and two).
 */
template <int kPerTweak>
inline void
hashRekeyedPair(uint64_t j0, uint64_t j1, const Label (&x)[2 * kPerTweak],
                Label (&out)[2 * kPerTweak])
{
    const Label keys[2] = {tweakKey(j0), tweakKey(j1)};
    aesMmoRekeyed<2, kPerTweak>(keys, x, out);
}

/**
 * One expanded tweak key, reusable for the hashes sharing that tweak
 * (OT-extension rows, the KOS fold, chain link tables).
 */
class RekeyedHasher
{
  public:
    explicit RekeyedHasher(uint64_t tweak) : aes_(tweakKey(tweak)) {}

    Label
    operator()(const Label &x) const
    {
        return aes_.encryptBlock(x) ^ x;
    }

  private:
    Aes128 aes_;
};

/**
 * Fixed-key hash: H(x, j) = AES_K(sigma(x) ^ j) ^ sigma(x) ^ j, where
 * sigma doubles the label halves to break XOR-linearity. Ablation only.
 */
class FixedKeyHasher
{
  public:
    FixedKeyHasher();

    Label operator()(const Label &x, uint64_t tweak) const;

  private:
    Aes128 aes_;
};

} // namespace haac

#endif // HAAC_CRYPTO_HASH_H
