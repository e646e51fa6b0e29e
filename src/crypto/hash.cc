#include "crypto/hash.h"

namespace haac {

Label
hashRekeyed(const Label &x, uint64_t tweak)
{
    const Label key[1] = {tweakKey(tweak)};
    const Label in[1] = {x};
    Label out[1];
    aesMmoRekeyed<1, 1>(key, in, out);
    return out[0];
}

namespace {

Label
fixedGlobalKey()
{
    return Label(0x7061706572484141ull, 0x4341534963613233ull);
}

/** sigma(x): swap-and-double linear orthomorphism (EMP-style). */
Label
sigma(const Label &x)
{
    return Label(x.hi ^ x.lo, x.hi);
}

} // namespace

FixedKeyHasher::FixedKeyHasher() : aes_(fixedGlobalKey()) {}

Label
FixedKeyHasher::operator()(const Label &x, uint64_t tweak) const
{
    Label t = sigma(x) ^ Label(tweak, 0);
    return aes_.encryptBlock(t) ^ t;
}

} // namespace haac
