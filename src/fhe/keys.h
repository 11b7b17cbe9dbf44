#ifndef CROPHE_FHE_KEYS_H_
#define CROPHE_FHE_KEYS_H_

/**
 * @file
 * CKKS key material: secret/public keys and key-switching keys.
 *
 * Key-switching keys (evk) use the digit decomposition of Section II-A:
 * with dnum digits of α limbs each, evk has shape
 * 2 × dnum × (α + L + 1) × N — each digit holds a pair of polynomials over
 * the extended basis {q_0…q_L, p_0…p_{α-1}}.
 */

#include <map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "fhe/rns.h"

namespace crophe::fhe {

/** Secret key: ternary s, kept in Eval representation over the full basis. */
struct SecretKey
{
    RnsPoly s;
};

/** Public encryption key (b, a) = (-a·s + e, a) over qBasis(L), Eval. */
struct PublicKey
{
    RnsPoly b;
    RnsPoly a;
};

/** One key-switching key: dnum digit pairs over qpBasis(L), Eval. */
struct KswKey
{
    std::vector<RnsPoly> b;  ///< b[j] for digit j
    std::vector<RnsPoly> a;  ///< a[j] for digit j

    u32 digitCount() const { return static_cast<u32>(b.size()); }
};

/** Generates all key material from a seeded RNG. */
class KeyGenerator
{
  public:
    KeyGenerator(const FheContext &ctx, u64 seed);

    const SecretKey &secretKey() const { return sk_; }

    PublicKey makePublicKey();

    /** Relinearization key: switches from s² to s. */
    KswKey makeRelinKey();

    /** Rotation key for a left rotation by @p r slots. */
    KswKey makeRotationKey(i64 r);

    /** Conjugation key (galois element 2N-1). */
    KswKey makeConjugationKey();

    /** Generic key switching from @p s_from (full-basis, Eval) to s. */
    KswKey makeKswKey(const RnsPoly &s_from);

  private:
    /** Sample a full-basis polynomial with ternary coefficients. */
    RnsPoly sampleTernary(const std::vector<u32> &basis);
    /** Sample a full-basis polynomial with centered Gaussian noise. */
    RnsPoly sampleNoise(const std::vector<u32> &basis);

    const FheContext *ctx_;
    Rng rng_;
    SecretKey sk_;
};

}  // namespace crophe::fhe

#endif  // CROPHE_FHE_KEYS_H_
