#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "common/rng.h"
#include "fhe/ckks.h"
#include "fhe/encoding.h"
#include "tests/fhe/test_util.h"

namespace crophe::fhe {
namespace {

using test::smallContext;
using test::smallParams;

double
maxSlotErr(const std::vector<Cplx> &a, const std::vector<Cplx> &b)
{
    double m = 0;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
        m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

TEST(Encoder, EncodeDecodeRoundTrip)
{
    const FheContext &ctx = smallContext();
    Encoder enc(ctx);
    Rng rng(70);

    std::vector<Cplx> z(enc.slots());
    for (auto &v : z)
        v = Cplx(rng.nextDouble() * 2 - 1, rng.nextDouble() * 2 - 1);

    Plaintext pt = enc.encode(z, ctx.maxLevel());
    auto back = enc.decode(pt);
    EXPECT_LT(maxSlotErr(z, back), 1e-6);
}

TEST(Encoder, RealEncodeRoundTrip)
{
    const FheContext &ctx = smallContext();
    Encoder enc(ctx);
    std::vector<double> v = {1.0, -2.5, 3.25, 0.0, 100.0, -0.001};
    Plaintext pt = enc.encodeReal(v, 2);
    auto back = enc.decode(pt);
    for (std::size_t i = 0; i < v.size(); ++i) {
        EXPECT_NEAR(back[i].real(), v[i], 1e-5) << i;
        EXPECT_NEAR(back[i].imag(), 0.0, 1e-5) << i;
    }
}

TEST(Encoder, PlaintextAdditionIsSlotwise)
{
    const FheContext &ctx = smallContext();
    Encoder enc(ctx);
    Rng rng(71);
    std::vector<Cplx> z1(enc.slots()), z2(enc.slots());
    for (u64 i = 0; i < enc.slots(); ++i) {
        z1[i] = Cplx(rng.nextDouble(), 0);
        z2[i] = Cplx(rng.nextDouble(), 0);
    }
    Plaintext p1 = enc.encode(z1, 3);
    Plaintext p2 = enc.encode(z2, 3);
    p1.poly.addInplace(p2.poly);
    auto got = enc.decode(p1);
    for (u64 i = 0; i < enc.slots(); ++i)
        EXPECT_NEAR(got[i].real(), z1[i].real() + z2[i].real(), 1e-5);
}

TEST(Encoder, PlaintextMultiplicationIsSlotwise)
{
    const FheContext &ctx = smallContext();
    Encoder enc(ctx);
    Rng rng(72);
    std::vector<Cplx> z1(enc.slots()), z2(enc.slots());
    for (u64 i = 0; i < enc.slots(); ++i) {
        z1[i] = Cplx(rng.nextDouble() * 2 - 1, 0);
        z2[i] = Cplx(rng.nextDouble() * 2 - 1, 0);
    }
    Plaintext p1 = enc.encode(z1, 3);
    Plaintext p2 = enc.encode(z2, 3);
    p1.poly.mulEwInplace(p2.poly);
    p1.scale *= p2.scale;
    auto got = enc.decode(p1);
    for (u64 i = 0; i < enc.slots(); ++i)
        EXPECT_NEAR(got[i].real(), z1[i].real() * z2[i].real(), 1e-4) << i;
}

TEST(Encoder, ScaleIsRespected)
{
    const FheContext &ctx = smallContext();
    Encoder enc(ctx);
    std::vector<double> v = {0.5};
    Plaintext small = enc.encodeReal(v, 1, 1ull << 20);
    Plaintext big = enc.encodeReal(v, 1, 1ull << 40);
    EXPECT_NEAR(enc.decode(small)[0].real(), 0.5, 1e-4);
    EXPECT_NEAR(enc.decode(big)[0].real(), 0.5, 1e-10);
}

/**
 * Decode through the per-coefficient oracle: RnsPoly::reconstructCoeff
 * re-derives every CRT constant for every coefficient. Same centering,
 * scaling and embedding as Encoder::decode.
 */
std::vector<Cplx>
referenceDecode(const FheContext &ctx, const Plaintext &pt)
{
    RnsPoly poly = pt.poly;
    if (poly.rep() == Rep::Eval)
        poly.toCoeff();
    BigUInt big_q = ctx.bigQ(pt.level);
    BigUInt half_q = big_q.half();
    const u64 half = ctx.n() / 2;
    std::vector<double> coeffs(ctx.n());
    for (u64 i = 0; i < ctx.n(); ++i) {
        BigUInt c = poly.reconstructCoeff(i);
        if (half_q < c) {
            BigUInt neg = big_q;
            neg.subInplace(c);
            coeffs[i] = -neg.toDouble();
        } else {
            coeffs[i] = c.toDouble();
        }
        coeffs[i] /= pt.scale;
    }
    std::vector<Cplx> vals(half);
    for (u64 j = 0; j < half; ++j)
        vals[j] = Cplx(coeffs[j], coeffs[j + half]);
    SpecialFft(ctx.n()).embed(vals);
    return vals;
}

TEST(Encoder, DecodeMatchesPerCoefficientCrtBitForBit)
{
    // The 59-bit context runs decrypt's element-wise multiply on the
    // emulated 128-bit Barrett path; the default one (35/50-bit) on the
    // float-quotient path of the avx512 backend.
    FheContextParams wide = smallParams();
    wide.firstModulusBits = 59;
    wide.scalingModulusBits = 59;
    wide.specialModulusBits = 59;
    FheContext wide_ctx(wide);
    for (const FheContext *ctx :
         std::initializer_list<const FheContext *>{&smallContext(),
                                                   &wide_ctx}) {
        KeyGenerator keygen(*ctx, 73);
        PublicKey pk = keygen.makePublicKey();
        Evaluator eval(*ctx, 74);
        Rng rng(75);
        std::vector<Cplx> z(ctx->n() / 2);
        for (auto &v : z)
            v = Cplx(rng.nextDouble() * 2 - 1, rng.nextDouble() * 2 - 1);
        for (u32 level = 0; level <= ctx->maxLevel(); ++level) {
            Plaintext pt = eval.decrypt(
                eval.encrypt(eval.encoder().encode(z, level), pk),
                keygen.secretKey());
            auto got = eval.encoder().decode(pt);
            auto want = referenceDecode(*ctx, pt);
            ASSERT_EQ(got.size(), want.size());
            for (u64 i = 0; i < got.size(); ++i) {
                ASSERT_EQ(std::bit_cast<u64>(got[i].real()),
                          std::bit_cast<u64>(want[i].real()))
                    << "level=" << level << " slot=" << i;
                ASSERT_EQ(std::bit_cast<u64>(got[i].imag()),
                          std::bit_cast<u64>(want[i].imag()))
                    << "level=" << level << " slot=" << i;
            }
        }
    }
}

}  // namespace
}  // namespace crophe::fhe
