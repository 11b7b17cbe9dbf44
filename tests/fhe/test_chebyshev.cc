#include <gtest/gtest.h>

#include "common/rng.h"
#include "fhe/chebyshev.h"
#include "tests/fhe/test_util.h"

namespace crophe::fhe {
namespace {

using test::smallContext;

TEST(PolyEval, ReferenceHorner)
{
    std::vector<double> p = {1.0, -2.0, 3.0};  // 1 - 2x + 3x²
    EXPECT_DOUBLE_EQ(evalPolyRef(p, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(evalPolyRef(p, 1.0), 2.0);
    EXPECT_DOUBLE_EQ(evalPolyRef(p, 2.0), 9.0);
}

TEST(PolyEval, HomomorphicQuadratic)
{
    const FheContext &ctx = smallContext();
    KeyGenerator keygen(ctx, 505);
    auto pk = keygen.makePublicKey();
    auto rlk = keygen.makeRelinKey();
    Evaluator eval(ctx, 7);

    Rng rng(120);
    std::vector<double> v(ctx.n() / 2);
    for (auto &x : v)
        x = rng.nextDouble() * 2 - 1;

    std::vector<double> p = {0.5, -1.0, 0.25};  // 0.5 - x + 0.25 x²
    auto ct = eval.encrypt(eval.encoder().encodeReal(v, ctx.maxLevel()), pk);
    auto out = evalPolyHorner(eval, ct, p, rlk);
    auto got = eval.encoder().decode(eval.decrypt(out, keygen.secretKey()));
    for (u64 i = 0; i < v.size(); ++i)
        EXPECT_NEAR(got[i].real(), evalPolyRef(p, v[i]), 5e-2) << i;
}

TEST(PolyEval, HomomorphicCubicConsumesLevels)
{
    const FheContext &ctx = smallContext();
    KeyGenerator keygen(ctx, 506);
    auto pk = keygen.makePublicKey();
    auto rlk = keygen.makeRelinKey();
    Evaluator eval(ctx, 8);

    std::vector<double> v = {0.5, -0.5, 0.9};
    std::vector<double> p = {0.1, 0.2, -0.3, 0.4};
    auto ct = eval.encrypt(eval.encoder().encodeReal(v, ctx.maxLevel()), pk);
    auto out = evalPolyHorner(eval, ct, p, rlk);
    EXPECT_EQ(out.level, ctx.maxLevel() - 3);
    auto got = eval.encoder().decode(eval.decrypt(out, keygen.secretKey()));
    for (u64 i = 0; i < v.size(); ++i)
        EXPECT_NEAR(got[i].real(), evalPolyRef(p, v[i]), 5e-2) << i;
}

}  // namespace
}  // namespace crophe::fhe
