#ifndef CROPHE_FHE_CKKS_H_
#define CROPHE_FHE_CKKS_H_

/**
 * @file
 * CKKS homomorphic operations (Section II-A).
 *
 * The Evaluator implements HAdd/HSub, CAdd/CMult, PAdd/PMult, HMult with
 * relinearization, rescaling, and HRot — all on RNS ciphertexts — with the
 * full key-switching flow Decomp → ModUp → KSKInP → ModDown of Figure 1.
 */

#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "fhe/bconv.h"
#include "fhe/encoding.h"
#include "fhe/keys.h"
#include "fhe/rns.h"

namespace crophe::fhe {

/** A CKKS ciphertext (b, a) over qBasis(level) in Eval representation. */
struct Ciphertext
{
    RnsPoly b;
    RnsPoly a;
    double scale = 0.0;
    u32 level = 0;
};

/** All homomorphic operations over one FheContext. */
class Evaluator
{
  public:
    Evaluator(const FheContext &ctx, u64 seed = 42);

    const FheContext &context() const { return *ctx_; }

    /** Public-key encryption of a plaintext. */
    Ciphertext encrypt(const Plaintext &pt, const PublicKey &pk);

    /** Decryption: m = b + a·s. */
    Plaintext decrypt(const Ciphertext &ct, const SecretKey &sk) const;

    Ciphertext add(const Ciphertext &c0, const Ciphertext &c1) const;
    /** c0 += c1, with add()'s level and scale checks. */
    void addInplace(Ciphertext &c0, const Ciphertext &c1) const;

    /** Add an encoded plaintext (PAdd); scales must match. */
    Ciphertext addPlain(const Ciphertext &ct, const Plaintext &pt) const;

    /** Multiply by an encoded plaintext (PMult); scale multiplies. */
    Ciphertext mulPlain(const Ciphertext &ct, const Plaintext &pt) const;

    /** Add a scalar constant (CAdd). */
    Ciphertext addConst(const Ciphertext &ct, double c) const;

    /** Multiply by a scalar constant (CMult); consumes scale Δ. */
    Ciphertext mulConst(const Ciphertext &ct, double c) const;

    /** HMult with relinearization by @p rlk. */
    Ciphertext mul(const Ciphertext &c0, const Ciphertext &c1,
                   const KswKey &rlk) const;

    /** Rescale by the current last prime (HRescale). */
    Ciphertext rescale(const Ciphertext &ct) const;

    /** Drop to a target level without rescaling (mod-switch). */
    Ciphertext levelDown(const Ciphertext &ct, u32 target_level) const;

    /** HRot: rotate slots left by @p r using rotation key @p rk. */
    Ciphertext rotate(const Ciphertext &ct, i64 r, const KswKey &rk) const;

    /** Complex conjugation of all slots. */
    Ciphertext conjugate(const Ciphertext &ct, const KswKey &ck) const;

    /**
     * Raw key switching: given a polynomial d over qBasis(level) in Eval
     * rep, return (b, a) = P^{-1}(d ⊙ evk) per Equation (1), through the
     * fused per-digit iNTT→BConv→NTT pipeline (DESIGN.md §13): ModUp
     * copies the digit's own limbs from the Eval-domain input and ModDown
     * stays in the Eval domain, skipping the transform round trips of the
     * unfused flow. Bit-identical to keySwitchUnfused().
     */
    std::pair<RnsPoly, RnsPoly> keySwitch(const RnsPoly &d, u32 level,
                                          const KswKey &key) const;

    /**
     * The unfused Decomp → ModUp → KSKInP → ModDown reference flow, each
     * stage a whole-polynomial pass with explicit toCoeff/toEval domain
     * crossings. Kept as the differential-test oracle and the benchmark
     * reference for the fused pipeline.
     */
    std::pair<RnsPoly, RnsPoly> keySwitchUnfused(const RnsPoly &d, u32 level,
                                                 const KswKey &key) const;

    // --- Hoisting primitives (triple-hoisted BSGS, DESIGN.md §15) -------

    /**
     * Shared Decomp + ModUp of @p d (Eval over qBasis(level)): all β
     * key-switch digits, each in Eval rep over qpBasis(level). Computed
     * once per hoisting group and reused by every hoistedRotate().
     */
    std::vector<RnsPoly> hoistedDecompModUp(const RnsPoly &d,
                                            u32 level) const;

    /**
     * KSKInP over precomputed ModUp digits: the (b, a) accumulator pair
     * over qpBasis(level) in Eval rep, WITHOUT the final ModDown — the
     * caller either finishes with modDownEvalPair() or keeps accumulating
     * more inner products in the extended basis (the triple-hoisted
     * giant-step accumulation).
     */
    std::pair<RnsPoly, RnsPoly> hoistedInnerProd(
        const std::vector<RnsPoly> &digits, const KswKey &key) const;

    /**
     * HRot by @p r from hoisted digits of ct.a: the NTT-domain
     * automorphism is applied to each precomputed digit (a pure
     * permutation — no transforms, no BConv), then KSKInP + ModDown as
     * usual. NOT bit-identical to rotate(ct, r, rk): ψ carries sign
     * flips and BConv of the canonical representative is not
     * odd-symmetric, so the extended limbs differ from the eager path
     * by multiples of the digit modulus — a lift ambiguity absorbed by
     * key-switch noise (standard hoisting). Validated bit-for-bit
     * against an unfused-primitive oracle and at decrypt level against
     * rotate().
     */
    Ciphertext hoistedRotate(const Ciphertext &ct,
                             const std::vector<RnsPoly> &digits, i64 r,
                             const KswKey &rk) const;

    const Encoder &encoder() const { return encoder_; }

  private:
    const FheContext *ctx_;
    Encoder encoder_;
    mutable Rng rng_;
};

}  // namespace crophe::fhe

#endif  // CROPHE_FHE_CKKS_H_
