#include "fhe/ckks.h"

#include <cmath>
#include <memory>

#include "common/logging.h"
#include "common/parallel.h"
#include "fhe/automorphism.h"

namespace crophe::fhe {

namespace {

/** Sample a small signed polynomial into Coeff rep over @p basis. */
RnsPoly
sampleSigned(const FheContext &ctx, const std::vector<u32> &basis, Rng &rng,
             bool ternary)
{
    RnsPoly poly(ctx, basis, Rep::Coeff);
    const u64 n = ctx.n();
    // Draw coefficients serially (the RNG stream order must not depend on
    // thread count); the per-limb reductions of the fixed draw are
    // independent and run in parallel.
    std::vector<i64> coeffs(n);
    for (u64 i = 0; i < n; ++i)
        coeffs[i] = ternary ? rng.nextTernary() : rng.nextNoise();
    parallelFor(0, poly.limbCount(), [&](u64 l) {
        const Modulus &m = poly.mod(l);
        for (u64 i = 0; i < n; ++i) {
            i64 c = coeffs[i];
            poly.limb(l)[i] =
                c >= 0 ? m.reduce64(static_cast<u64>(c))
                       : m.neg(m.reduce64(static_cast<u64>(-c)));
        }
    });
    return poly;
}

}  // namespace

Evaluator::Evaluator(const FheContext &ctx, u64 seed)
    : ctx_(&ctx), encoder_(ctx), rng_(seed)
{
}

Ciphertext
Evaluator::encrypt(const Plaintext &pt, const PublicKey &pk)
{
    auto basis = ctx_->qBasis(pt.level);
    RnsPoly u = sampleSigned(*ctx_, basis, rng_, true);
    u.toEval();
    RnsPoly e0 = sampleSigned(*ctx_, basis, rng_, false);
    e0.toEval();
    RnsPoly e1 = sampleSigned(*ctx_, basis, rng_, false);
    e1.toEval();

    Ciphertext ct;
    ct.scale = pt.scale;
    ct.level = pt.level;
    ct.b = pk.b.restrictedTo(basis);
    ct.b.mulEwInplace(u);
    ct.b.addInplace(e0);
    ct.b.addInplace(pt.poly);
    ct.a = pk.a.restrictedTo(basis);
    ct.a.mulEwInplace(u);
    ct.a.addInplace(e1);
    return ct;
}

Ciphertext
Evaluator::encryptSymmetric(const Plaintext &pt, const SecretKey &sk)
{
    auto basis = ctx_->qBasis(pt.level);
    Ciphertext ct;
    ct.scale = pt.scale;
    ct.level = pt.level;
    ct.a = RnsPoly(*ctx_, basis, Rep::Eval);
    ct.a.uniformRandom(rng_);
    RnsPoly e = sampleSigned(*ctx_, basis, rng_, false);
    e.toEval();

    RnsPoly s_q = sk.s.restrictedTo(basis);
    ct.b = ct.a;
    ct.b.mulEwInplace(s_q);
    ct.b.negateInplace();
    ct.b.addInplace(e);
    ct.b.addInplace(pt.poly);
    return ct;
}

Plaintext
Evaluator::decrypt(const Ciphertext &ct, const SecretKey &sk) const
{
    auto basis = ctx_->qBasis(ct.level);
    RnsPoly s_q = sk.s.restrictedTo(basis);
    Plaintext pt;
    pt.scale = ct.scale;
    pt.level = ct.level;
    pt.poly = ct.a;
    pt.poly.mulEwInplace(s_q);
    pt.poly.addInplace(ct.b);
    return pt;
}

Ciphertext
Evaluator::add(const Ciphertext &c0, const Ciphertext &c1) const
{
    CROPHE_ASSERT(c0.level == c1.level, "HAdd level mismatch");
    CROPHE_ASSERT(std::abs(c0.scale / c1.scale - 1.0) < 1e-9,
                  "HAdd scale mismatch: ", c0.scale, " vs ", c1.scale);
    Ciphertext out = c0;
    out.b.addInplace(c1.b);
    out.a.addInplace(c1.a);
    return out;
}

Ciphertext
Evaluator::sub(const Ciphertext &c0, const Ciphertext &c1) const
{
    CROPHE_ASSERT(c0.level == c1.level, "HSub level mismatch");
    Ciphertext out = c0;
    out.b.subInplace(c1.b);
    out.a.subInplace(c1.a);
    return out;
}

Ciphertext
Evaluator::addPlain(const Ciphertext &ct, const Plaintext &pt) const
{
    CROPHE_ASSERT(ct.level == pt.level, "PAdd level mismatch");
    Ciphertext out = ct;
    out.b.addInplace(pt.poly);
    return out;
}

Ciphertext
Evaluator::mulPlain(const Ciphertext &ct, const Plaintext &pt) const
{
    CROPHE_ASSERT(ct.level == pt.level, "PMult level mismatch");
    Ciphertext out = ct;
    out.b.mulEwInplace(pt.poly);
    out.a.mulEwInplace(pt.poly);
    out.scale = ct.scale * pt.scale;
    return out;
}

Ciphertext
Evaluator::addConst(const Ciphertext &ct, double c) const
{
    // Encode the constant into every slot at the ciphertext's scale.
    std::vector<double> v(ctx_->n() / 2, c);
    Plaintext pt = encoder_.encodeReal(v, ct.level, ct.scale);
    return addPlain(ct, pt);
}

Ciphertext
Evaluator::mulConst(const Ciphertext &ct, double c) const
{
    Ciphertext out = ct;
    double scaled = c * ctx_->defaultScale();
    bool negative = scaled < 0;
    u64 ci = static_cast<u64>(std::llround(std::abs(scaled)));
    out.b.mulConstInplace(ci);
    out.a.mulConstInplace(ci);
    if (negative) {
        out.b.negateInplace();
        out.a.negateInplace();
    }
    out.scale = ct.scale * ctx_->defaultScale();
    return out;
}

std::pair<RnsPoly, RnsPoly>
Evaluator::keySwitch(const RnsPoly &d, u32 level, const KswKey &key) const
{
    CROPHE_ASSERT(d.rep() == Rep::Eval, "keySwitch expects Eval input");
    // The Coeff-domain copy feeds every digit's BConv; the Eval-domain
    // original supplies each digit's own limbs directly (fused ModUp).
    RnsPoly d_coeff = d;
    d_coeff.toCoeff();

    const u32 beta = ctx_->digitCount(level);
    CROPHE_ASSERT(beta <= key.digitCount(), "key has too few digits");
    // Digits are independent up to the final accumulation: compute the
    // per-digit partial products in parallel, then merge them on this
    // thread in digit order. Modular adds are exact, so the index-order
    // merge is bit-identical to the sequential loop. The key's rows are
    // multiplied in place via mulEwRestricted — no restrictedTo copy of
    // the key — and the b-product reuses the digit's ModUp slab.
    std::vector<std::unique_ptr<std::pair<RnsPoly, RnsPoly>>> parts(beta);
    parallelFor(0, beta, [&](u64 j) {
        RnsPoly up = fusedModUpEval(*ctx_, d, d_coeff, static_cast<u32>(j),
                                    level);  // Eval, qp
        RnsPoly part_b = up;
        part_b.mulEwRestricted(key.b[j]);
        up.mulEwRestricted(key.a[j]);
        parts[j] = std::make_unique<std::pair<RnsPoly, RnsPoly>>(
            std::move(part_b), std::move(up));
    });
    // Digit 0 seeds the accumulators directly (adding into a fresh
    // zero poly is the identity), later digits accumulate in order.
    RnsPoly acc_b = std::move(parts[0]->first);
    RnsPoly acc_a = std::move(parts[0]->second);
    for (u32 j = 1; j < beta; ++j) {
        acc_b.addInplace(parts[j]->first);
        acc_a.addInplace(parts[j]->second);
    }

    // The accumulators never leave the Eval domain: ModDown inverse-
    // transforms only the P limbs and returns the pair already in Eval.
    return modDownEvalPair(*ctx_, acc_b, acc_a, level);
}

std::pair<RnsPoly, RnsPoly>
Evaluator::keySwitchUnfused(const RnsPoly &d, u32 level,
                            const KswKey &key) const
{
    CROPHE_ASSERT(d.rep() == Rep::Eval, "keySwitch expects Eval input");
    RnsPoly d_coeff = d;
    d_coeff.toCoeff();

    auto qp = ctx_->qpBasis(level);
    RnsPoly acc_b(*ctx_, qp, Rep::Eval);
    RnsPoly acc_a(*ctx_, qp, Rep::Eval);

    const u32 beta = ctx_->digitCount(level);
    CROPHE_ASSERT(beta <= key.digitCount(), "key has too few digits");
    std::vector<std::unique_ptr<std::pair<RnsPoly, RnsPoly>>> parts(beta);
    parallelFor(0, beta, [&](u64 j) {
        RnsPoly up = modUpDigit(*ctx_, d_coeff, static_cast<u32>(j),
                                level);  // Coeff, qp
        up.toEval();
        RnsPoly kb = key.b[j].restrictedTo(qp);
        RnsPoly ka = key.a[j].restrictedTo(qp);
        kb.mulEwInplace(up);
        ka.mulEwInplace(up);
        parts[j] = std::make_unique<std::pair<RnsPoly, RnsPoly>>(
            std::move(kb), std::move(ka));
    });
    for (u32 j = 0; j < beta; ++j) {
        acc_b.addInplace(parts[j]->first);
        acc_a.addInplace(parts[j]->second);
    }

    acc_b.toCoeff();
    acc_a.toCoeff();
    RnsPoly out_b = modDown(*ctx_, acc_b, level);
    RnsPoly out_a = modDown(*ctx_, acc_a, level);
    out_b.toEval();
    out_a.toEval();
    return {std::move(out_b), std::move(out_a)};
}

std::vector<RnsPoly>
Evaluator::hoistedDecompModUp(const RnsPoly &d, u32 level) const
{
    CROPHE_ASSERT(d.rep() == Rep::Eval, "hoisted ModUp expects Eval input");
    RnsPoly d_coeff = d;
    d_coeff.toCoeff();
    const u32 beta = ctx_->digitCount(level);
    std::vector<RnsPoly> digits(beta);
    parallelFor(0, beta, [&](u64 j) {
        digits[j] = fusedModUpEval(*ctx_, d, d_coeff, static_cast<u32>(j),
                                   level);
    });
    return digits;
}

std::pair<RnsPoly, RnsPoly>
Evaluator::hoistedInnerProd(const std::vector<RnsPoly> &digits,
                            const KswKey &key) const
{
    const u32 beta = static_cast<u32>(digits.size());
    CROPHE_ASSERT(beta >= 1 && beta <= key.digitCount(),
                  "digit count mismatch in hoisted inner product");
    std::vector<std::unique_ptr<std::pair<RnsPoly, RnsPoly>>> parts(beta);
    parallelFor(0, beta, [&](u64 j) {
        RnsPoly part_b = digits[j];
        part_b.mulEwRestricted(key.b[j]);
        RnsPoly part_a = digits[j];
        part_a.mulEwRestricted(key.a[j]);
        parts[j] = std::make_unique<std::pair<RnsPoly, RnsPoly>>(
            std::move(part_b), std::move(part_a));
    });
    RnsPoly acc_b = std::move(parts[0]->first);
    RnsPoly acc_a = std::move(parts[0]->second);
    for (u32 j = 1; j < beta; ++j) {
        acc_b.addInplace(parts[j]->first);
        acc_a.addInplace(parts[j]->second);
    }
    return {std::move(acc_b), std::move(acc_a)};
}

Ciphertext
Evaluator::hoistedRotate(const Ciphertext &ct,
                         const std::vector<RnsPoly> &digits, i64 r,
                         const KswKey &rk) const
{
    const u64 g = galoisElementForRotation(r, ctx_->n());
    const u32 beta = static_cast<u32>(digits.size());
    // ψ commutes with ModUp bit-for-bit (BConv is exact on [0, M)
    // representatives), so permuting the hoisted digits replaces the
    // per-rotation Decomp + ModUp entirely.
    std::vector<RnsPoly> rotated(beta);
    parallelFor(0, beta, [&](u64 j) {
        rotated[j] = applyAutomorphism(digits[j], g);
    });
    auto [ip_b, ip_a] = hoistedInnerProd(rotated, rk);
    auto [ks_b, ks_a] = modDownEvalPair(*ctx_, ip_b, ip_a, ct.level);

    Ciphertext out;
    out.level = ct.level;
    out.scale = ct.scale;
    out.b = applyAutomorphism(ct.b, g);
    out.b.addInplace(ks_b);
    out.a = std::move(ks_a);
    return out;
}

Ciphertext
Evaluator::mul(const Ciphertext &c0, const Ciphertext &c1,
               const KswKey &rlk) const
{
    CROPHE_ASSERT(c0.level == c1.level, "HMult level mismatch");

    RnsPoly d0 = c0.b;
    d0.mulEwInplace(c1.b);
    RnsPoly d1 = c0.a;
    d1.mulEwInplace(c1.b);
    RnsPoly t = c0.b;
    t.mulEwInplace(c1.a);
    d1.addInplace(t);
    RnsPoly d2 = c0.a;
    d2.mulEwInplace(c1.a);

    auto [ks_b, ks_a] = keySwitch(d2, c0.level, rlk);

    Ciphertext out;
    out.level = c0.level;
    out.scale = c0.scale * c1.scale;
    out.b = std::move(d0);
    out.b.addInplace(ks_b);
    out.a = std::move(d1);
    out.a.addInplace(ks_a);
    return out;
}

Ciphertext
Evaluator::rescale(const Ciphertext &ct) const
{
    CROPHE_ASSERT(ct.level >= 1, "cannot rescale at level 0");
    Ciphertext out;
    out.level = ct.level - 1;
    out.scale = ct.scale / static_cast<double>(ctx_->modValue(ct.level));

    RnsPoly b = ct.b;
    b.toCoeff();
    out.b = rescalePoly(*ctx_, b, ct.level);
    out.b.toEval();

    RnsPoly a = ct.a;
    a.toCoeff();
    out.a = rescalePoly(*ctx_, a, ct.level);
    out.a.toEval();
    return out;
}

Ciphertext
Evaluator::levelDown(const Ciphertext &ct, u32 target_level) const
{
    CROPHE_ASSERT(target_level <= ct.level, "levelDown cannot raise level");
    Ciphertext out;
    out.level = target_level;
    out.scale = ct.scale;
    auto basis = ctx_->qBasis(target_level);
    out.b = ct.b.restrictedTo(basis);
    out.a = ct.a.restrictedTo(basis);
    return out;
}

Ciphertext
Evaluator::rotate(const Ciphertext &ct, i64 r, const KswKey &rk) const
{
    u64 g = galoisElementForRotation(r, ctx_->n());
    RnsPoly b_rot = applyAutomorphism(ct.b, g);
    RnsPoly a_rot = applyAutomorphism(ct.a, g);

    auto [ks_b, ks_a] = keySwitch(a_rot, ct.level, rk);

    Ciphertext out;
    out.level = ct.level;
    out.scale = ct.scale;
    out.b = std::move(b_rot);
    out.b.addInplace(ks_b);
    out.a = std::move(ks_a);
    return out;
}

Ciphertext
Evaluator::conjugate(const Ciphertext &ct, const KswKey &ck) const
{
    u64 g = galoisElementForConjugation(ctx_->n());
    RnsPoly b_conj = applyAutomorphism(ct.b, g);
    RnsPoly a_conj = applyAutomorphism(ct.a, g);

    auto [ks_b, ks_a] = keySwitch(a_conj, ct.level, ck);

    Ciphertext out;
    out.level = ct.level;
    out.scale = ct.scale;
    out.b = std::move(b_conj);
    out.b.addInplace(ks_b);
    out.a = std::move(ks_a);
    return out;
}

}  // namespace crophe::fhe
