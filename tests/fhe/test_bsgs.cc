#include <gtest/gtest.h>

#include "common/rng.h"
#include "fhe/bsgs.h"
#include "tests/fhe/test_util.h"

namespace crophe::fhe {
namespace {

using test::smallContext;

struct BsgsFixtureState
{
    const FheContext &ctx;
    KeyGenerator keygen;
    PublicKey pk;
    Evaluator eval;

    BsgsFixtureState()
        : ctx(smallContext()), keygen(ctx, 31415), pk(keygen.makePublicKey()),
          eval(ctx, 13)
    {
    }

    BsgsKeys
    keysFor(u32 n1, u32 n2, RotStrategy strategy, u32 r_hyb)
    {
        BsgsKeys keys;
        for (i64 r : requiredRotations(n1, n2, strategy, r_hyb))
            keys.rot.emplace(r, keygen.makeRotationKey(r));
        return keys;
    }
};

BsgsFixtureState &
state()
{
    static BsgsFixtureState s;
    return s;
}

TEST(Bsgs, RequiredRotationsPerStrategy)
{
    auto min_ks = requiredRotations(4, 2, RotStrategy::MinKs, 0);
    EXPECT_EQ(min_ks, (std::vector<i64>{1, 4}));

    auto hoist = requiredRotations(4, 2, RotStrategy::Hoisting, 0);
    EXPECT_EQ(hoist, (std::vector<i64>{1, 2, 3, 4}));

    auto hybrid = requiredRotations(4, 2, RotStrategy::Hybrid, 2);
    EXPECT_EQ(hybrid, (std::vector<i64>{1, 2, 4}));
}

TEST(Bsgs, BabyStepsAgreeAcrossStrategies)
{
    auto &s = state();
    const u32 n1 = 4;
    std::vector<double> v(s.ctx.n() / 2);
    for (u64 i = 0; i < v.size(); ++i)
        v[i] = (i % 11) * 0.2 - 1.0;
    auto ct = s.eval.encrypt(s.eval.encoder().encodeReal(v, 3), s.pk);

    auto run = [&](RotStrategy st, u32 r_hyb) {
        auto keys = s.keysFor(n1, 1, st, r_hyb);
        auto steps = babySteps(s.eval, ct, n1, st, r_hyb, keys);
        std::vector<std::vector<double>> out;
        for (auto &c : steps) {
            auto dec = s.eval.encoder().decode(
                s.eval.decrypt(c, s.keygen.secretKey()));
            std::vector<double> reals(dec.size());
            for (u64 i = 0; i < dec.size(); ++i)
                reals[i] = dec[i].real();
            out.push_back(std::move(reals));
        }
        return out;
    };

    auto ref = run(RotStrategy::MinKs, 0);
    auto hoist = run(RotStrategy::Hoisting, 0);
    auto hybrid = run(RotStrategy::Hybrid, 2);

    const u64 slots = s.ctx.n() / 2;
    for (u32 i = 0; i < n1; ++i) {
        for (u64 k = 0; k < slots; ++k) {
            double expect = v[(k + i) % slots];
            EXPECT_NEAR(ref[i][k], expect, 2e-2) << "MinKs i=" << i;
            EXPECT_NEAR(hoist[i][k], expect, 2e-2) << "Hoist i=" << i;
            EXPECT_NEAR(hybrid[i][k], expect, 2e-2) << "Hybrid i=" << i;
        }
    }
}

TEST(Bsgs, PtMatVecMultMatchesReference)
{
    auto &s = state();
    const u32 n1 = 2, n2 = 2;
    const u64 dim = n1 * n2;
    Rng rng(110);

    std::vector<std::vector<double>> m(dim, std::vector<double>(dim));
    std::vector<double> x(dim);
    for (auto &row : m)
        for (auto &e : row)
            e = rng.nextDouble() * 2 - 1;
    for (auto &e : x)
        e = rng.nextDouble() * 2 - 1;

    // Tile x across all slots.
    const u64 slots = s.ctx.n() / 2;
    std::vector<double> x_tiled(slots);
    for (u64 i = 0; i < slots; ++i)
        x_tiled[i] = x[i % dim];

    auto diags = matrixDiagonals(m, slots);
    auto expect = matVecRef(m, x);

    for (RotStrategy st :
         {RotStrategy::MinKs, RotStrategy::Hoisting, RotStrategy::Hybrid}) {
        u32 r_hyb = st == RotStrategy::Hybrid ? 2 : 0;
        auto keys = s.keysFor(n1, n2, st, r_hyb);
        auto ct = s.eval.encrypt(s.eval.encoder().encodeReal(x_tiled, 3), s.pk);
        auto out = ptMatVecMult(s.eval, ct, diags, n1, n2, st, r_hyb, keys);
        auto got = s.eval.encoder().decode(
            s.eval.decrypt(out, s.keygen.secretKey()));
        for (u64 i = 0; i < dim; ++i)
            EXPECT_NEAR(got[i].real(), expect[i], 5e-2)
                << "strategy=" << static_cast<int>(st) << " i=" << i;
    }
}

}  // namespace
}  // namespace crophe::fhe
