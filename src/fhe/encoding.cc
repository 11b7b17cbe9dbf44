#include "fhe/encoding.h"

#include <cmath>
#include <span>

#include "common/logging.h"
#include "common/parallel.h"

namespace crophe::fhe {

namespace {

/**
 * Round each scaled real coefficient to an integer and write its
 * residues over the poly's basis, one limb row at a time; coefficients
 * past values.size() stay zero.
 */
void
setSignedCoeffs(RnsPoly &poly, std::span<const double> values)
{
    std::vector<i64> rounded(values.size());
    for (u64 k = 0; k < values.size(); ++k) {
        double mag = std::abs(values[k]);
        CROPHE_ASSERT(mag < 0x1.0p62, "coefficient too large to encode: ",
                      values[k]);
        i64 v = static_cast<i64>(std::llround(mag));
        rounded[k] = values[k] < 0 ? -v : v;
    }
    parallelFor(0, poly.limbCount(), [&](u64 l) {
        const Modulus &m = poly.mod(l);
        auto row = poly.limb(l);
        for (u64 k = 0; k < rounded.size(); ++k) {
            i64 c = rounded[k];
            row[k] = c >= 0 ? m.reduce64(static_cast<u64>(c))
                            : m.neg(m.reduce64(static_cast<u64>(-c)));
        }
    });
}

}  // namespace

Encoder::Encoder(const FheContext &ctx) : ctx_(&ctx), fft_(ctx.n())
{
}

Plaintext
Encoder::encode(const std::vector<Cplx> &values, u32 level,
                double scale) const
{
    if (scale == 0.0)
        scale = ctx_->defaultScale();
    const u64 half = slots();

    std::vector<Cplx> vals(half, Cplx(0.0, 0.0));
    for (u64 i = 0; i < values.size() && i < half; ++i)
        vals[i] = values[i];

    fft_.embedInverse(vals);

    std::vector<double> coeffs(ctx_->n());
    for (u64 j = 0; j < half; ++j) {
        coeffs[j] = vals[j].real() * scale;
        coeffs[j + half] = vals[j].imag() * scale;
    }

    Plaintext pt;
    pt.scale = scale;
    pt.level = level;
    pt.poly = RnsPoly(*ctx_, ctx_->qBasis(level), Rep::Coeff);
    setSignedCoeffs(pt.poly, coeffs);
    pt.poly.toEval();
    return pt;
}

Plaintext
Encoder::encodeReal(const std::vector<double> &values, u32 level,
                    double scale) const
{
    std::vector<Cplx> v(values.size());
    for (std::size_t i = 0; i < values.size(); ++i)
        v[i] = Cplx(values[i], 0.0);
    return encode(v, level, scale);
}

std::vector<Cplx>
Encoder::decode(const Plaintext &pt) const
{
    RnsPoly poly = pt.poly;
    if (poly.rep() == Rep::Eval)
        poly.toCoeff();

    // CRT-reconstruct each coefficient as
    //   x = Σ_i [x_i·(M/m_i)^{-1} mod m_i]·(M/m_i) mod M
    // with M, M/m_i and the inverses derived once for all coefficients
    // (RnsPoly::reconstructCoeff is the per-coefficient reference), then
    // center it against Q_level.
    const u32 limbs = poly.limbCount();
    std::vector<u64> mods(limbs);
    for (u32 i = 0; i < limbs; ++i)
        mods[i] = poly.mod(i).value();
    const BigUInt big_m = productOf(mods);
    std::vector<BigUInt> mhat(limbs);
    std::vector<u64> mhat_inv(limbs);
    for (u32 i = 0; i < limbs; ++i) {
        std::vector<u64> others;
        for (u32 k = 0; k < limbs; ++k)
            if (k != i)
                others.push_back(mods[k]);
        mhat[i] = productOf(others);
        mhat_inv[i] = poly.mod(i).inv(mhat[i].modSmall(mods[i]));
    }

    BigUInt big_q = ctx_->bigQ(pt.level);
    BigUInt half_q = big_q.half();
    const u64 n = ctx_->n();
    const u64 half = n / 2;
    std::vector<Cplx> vals(half);
    std::vector<double> coeffs(n);
    for (u64 i = 0; i < n; ++i) {
        BigUInt c(0);
        for (u32 l = 0; l < limbs; ++l)
            c.addMulSmall(mhat[l], poly.mod(l).mul(poly.limb(l)[i],
                                                   mhat_inv[l]));
        while (!(c < big_m))
            c.subInplace(big_m);
        if (half_q < c) {
            BigUInt neg = big_q;
            neg.subInplace(c);
            coeffs[i] = -neg.toDouble();
        } else {
            coeffs[i] = c.toDouble();
        }
        coeffs[i] /= pt.scale;
    }
    for (u64 j = 0; j < half; ++j)
        vals[j] = Cplx(coeffs[j], coeffs[j + half]);
    fft_.embed(vals);
    return vals;
}

}  // namespace crophe::fhe
