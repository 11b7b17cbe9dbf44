#include "fhe/keys.h"

#include "common/logging.h"
#include "fhe/automorphism.h"
#include "fhe/biguint.h"

namespace crophe::fhe {

KeyGenerator::KeyGenerator(const FheContext &ctx, u64 seed)
    : ctx_(&ctx), rng_(seed)
{
    auto full = ctx.qpBasis(ctx.maxLevel());
    sk_.s = sampleTernary(full);
    sk_.s.toEval();
}

RnsPoly
KeyGenerator::sampleTernary(const std::vector<u32> &basis)
{
    RnsPoly poly(*ctx_, basis, Rep::Coeff);
    const u64 n = ctx_->n();
    std::vector<int> coeffs(n);
    for (u64 i = 0; i < n; ++i)
        coeffs[i] = rng_.nextTernary();
    for (u32 l = 0; l < poly.limbCount(); ++l) {
        const Modulus &m = poly.mod(l);
        for (u64 i = 0; i < n; ++i) {
            int c = coeffs[i];
            poly.limb(l)[i] = c == 0 ? 0 : (c > 0 ? 1 : m.value() - 1);
        }
    }
    return poly;
}

RnsPoly
KeyGenerator::sampleNoise(const std::vector<u32> &basis)
{
    RnsPoly poly(*ctx_, basis, Rep::Coeff);
    const u64 n = ctx_->n();
    std::vector<i64> coeffs(n);
    for (u64 i = 0; i < n; ++i)
        coeffs[i] = rng_.nextNoise();
    for (u32 l = 0; l < poly.limbCount(); ++l) {
        const Modulus &m = poly.mod(l);
        for (u64 i = 0; i < n; ++i) {
            i64 c = coeffs[i];
            poly.limb(l)[i] =
                c >= 0 ? m.reduce64(static_cast<u64>(c))
                       : m.neg(m.reduce64(static_cast<u64>(-c)));
        }
    }
    return poly;
}

PublicKey
KeyGenerator::makePublicKey()
{
    auto basis = ctx_->qBasis(ctx_->maxLevel());
    PublicKey pk;
    pk.a = RnsPoly(*ctx_, basis, Rep::Eval);
    pk.a.uniformRandom(rng_);
    RnsPoly e = sampleNoise(basis);
    e.toEval();

    RnsPoly s_q = sk_.s.restrictedTo(basis);
    pk.b = pk.a;
    pk.b.mulEwInplace(s_q);
    pk.b.negateInplace();
    pk.b.addInplace(e);
    return pk;
}

KswKey
KeyGenerator::makeKswKey(const RnsPoly &s_from)
{
    const u32 top = ctx_->maxLevel();
    auto full = ctx_->qpBasis(top);
    const u32 dnum = ctx_->dnum();

    // Gadget factors g_j = (Q/D_j)·[(Q/D_j)^{-1} mod D_j]: g_j ≡ 1 mod the
    // digit-j moduli and ≡ 0 mod every other q_i; computed per modulus.
    std::vector<u64> q_vals;
    for (u32 i = 0; i <= top; ++i)
        q_vals.push_back(ctx_->modValue(i));

    KswKey key;
    for (u32 j = 0; j < dnum; ++j) {
        auto digit = ctx_->digitLimbs(j, top);
        std::vector<u64> d_vals, dhat_vals;
        for (u32 i = 0; i <= top; ++i) {
            bool in_digit = false;
            for (u32 d : digit)
                in_digit |= (d == i);
            (in_digit ? d_vals : dhat_vals).push_back(q_vals[i]);
        }
        BigUInt dhat = dhat_vals.empty() ? BigUInt(1) : productOf(dhat_vals);
        BigUInt d_prod = productOf(d_vals);
        // (Q/D_j)^{-1} mod D_j via CRT over the digit moduli.
        // g_j = dhat * inv; compute g_j mod every context modulus directly:
        // g_j ≡ dhat·[dhat^{-1} mod D_j] — build the inverse as an integer
        // with CRT, then multiply BigUInts.
        BigUInt inv_big(0);
        for (u64 dq : d_vals) {
            Modulus dm(dq);
            u64 inv_mod = dm.inv(dhat.modSmall(dq));
            // CRT accumulate: inv_big += inv_mod·(D_j/dq)·[(D_j/dq)^{-1}]_dq
            std::vector<u64> others;
            for (u64 o : d_vals)
                if (o != dq)
                    others.push_back(o);
            BigUInt ohat = others.empty() ? BigUInt(1) : productOf(others);
            u64 comb = dm.mul(inv_mod, dm.inv(ohat.modSmall(dq)));
            inv_big.addMulSmall(ohat, comb);
        }
        while (!(inv_big < d_prod))
            inv_big.subInplace(d_prod);

        RnsPoly a(*ctx_, full, Rep::Eval);
        a.uniformRandom(rng_);
        RnsPoly e = sampleNoise(full);
        e.toEval();

        // b = -a·s + e + P·g_j·s_from, with P·g_j reduced per modulus.
        std::vector<u64> factor(full.size());
        for (std::size_t k = 0; k < full.size(); ++k) {
            const Modulus &m = ctx_->mod(full[k]);
            u64 g_mod = m.mul(dhat.modSmall(m.value()),
                              inv_big.modSmall(m.value()));
            u64 p_mod = ctx_->bigP().modSmall(m.value());
            factor[k] = m.mul(g_mod, p_mod);
        }

        RnsPoly payload = s_from;
        payload.mulScalarInplace(factor);

        RnsPoly b = a;
        b.mulEwInplace(sk_.s);
        b.negateInplace();
        b.addInplace(e);
        b.addInplace(payload);

        key.b.push_back(std::move(b));
        key.a.push_back(std::move(a));
    }
    return key;
}

KswKey
KeyGenerator::makeRelinKey()
{
    RnsPoly s2 = sk_.s;
    s2.mulEwInplace(sk_.s);
    return makeKswKey(s2);
}

KswKey
KeyGenerator::makeRotationKey(i64 r)
{
    u64 g = galoisElementForRotation(r, ctx_->n());
    RnsPoly s_rot = applyAutomorphism(sk_.s, g);
    return makeKswKey(s_rot);
}

KswKey
KeyGenerator::makeConjugationKey()
{
    u64 g = galoisElementForConjugation(ctx_->n());
    RnsPoly s_conj = applyAutomorphism(sk_.s, g);
    return makeKswKey(s_conj);
}

}  // namespace crophe::fhe
