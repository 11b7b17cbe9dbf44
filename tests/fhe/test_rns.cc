#include <gtest/gtest.h>

#include "common/rng.h"
#include "fhe/rns.h"
#include "tests/fhe/test_util.h"

namespace crophe::fhe {
namespace {

using test::smallContext;
using test::smallParams;

TEST(FheContext, BasisLayout)
{
    const FheContext &ctx = smallContext();
    EXPECT_EQ(ctx.n(), 256u);
    EXPECT_EQ(ctx.maxLevel(), 4u);
    EXPECT_EQ(ctx.qCount(), 5u);
    EXPECT_EQ(ctx.pCount(), 2u);
    EXPECT_EQ(ctx.dnum(), 3u);  // ceil(5/2)

    auto qb = ctx.qBasis(2);
    EXPECT_EQ(qb, (std::vector<u32>{0, 1, 2}));
    auto pb = ctx.pBasis();
    EXPECT_EQ(pb, (std::vector<u32>{5, 6}));
    auto qpb = ctx.qpBasis(1);
    EXPECT_EQ(qpb, (std::vector<u32>{0, 1, 5, 6}));
}

TEST(FheContext, DigitLayout)
{
    const FheContext &ctx = smallContext();
    EXPECT_EQ(ctx.digitCount(4), 3u);
    EXPECT_EQ(ctx.digitCount(1), 1u);
    EXPECT_EQ(ctx.digitLimbs(0, 4), (std::vector<u32>{0, 1}));
    EXPECT_EQ(ctx.digitLimbs(1, 4), (std::vector<u32>{2, 3}));
    EXPECT_EQ(ctx.digitLimbs(2, 4), (std::vector<u32>{4}));  // partial digit
}

TEST(FheContext, ModuliAreDistinctAndNttFriendly)
{
    const FheContext &ctx = smallContext();
    for (u32 i = 0; i < ctx.modulusCount(); ++i) {
        EXPECT_EQ((ctx.modValue(i) - 1) % (2 * ctx.n()), 0u);
        for (u32 j = i + 1; j < ctx.modulusCount(); ++j)
            EXPECT_NE(ctx.modValue(i), ctx.modValue(j));
    }
}

TEST(RnsPoly, AddSubNegateRoundTrip)
{
    const FheContext &ctx = smallContext();
    Rng rng(40);
    RnsPoly a(ctx, ctx.qBasis(2));
    RnsPoly b(ctx, ctx.qBasis(2));
    a.uniformRandom(rng);
    b.uniformRandom(rng);

    // a + b - b, subtracting by adding the negation.
    RnsPoly neg_b = b;
    neg_b.negateInplace();
    RnsPoly c = a;
    c.addInplace(b);
    c.addInplace(neg_b);
    for (u32 l = 0; l < a.limbCount(); ++l)
        EXPECT_EQ(c.limbVec(l), a.limbVec(l));

    RnsPoly d = a;
    d.negateInplace();
    d.negateInplace();
    for (u32 l = 0; l < a.limbCount(); ++l)
        EXPECT_EQ(d.limbVec(l), a.limbVec(l));
}

TEST(RnsPoly, EvalMultiplyMatchesCoeffConvolution)
{
    const FheContext &ctx = smallContext();
    Rng rng(41);
    RnsPoly a(ctx, ctx.qBasis(0));
    RnsPoly b(ctx, ctx.qBasis(0));
    a.uniformRandom(rng);
    b.uniformRandom(rng);

    auto expect = polyMulNaive(a.limbVec(0), b.limbVec(0), ctx.mod(0));

    a.toEval();
    b.toEval();
    a.mulEwInplace(b);
    a.toCoeff();
    EXPECT_EQ(a.limbVec(0), expect);
}

TEST(RnsPoly, CrtReconstructionOfSmallConstant)
{
    const FheContext &ctx = smallContext();
    RnsPoly a(ctx, ctx.qBasis(3));
    // Set coefficient 5 to the value 123456789 in all limbs.
    for (u32 l = 0; l < a.limbCount(); ++l)
        a.limb(l)[5] = ctx.mod(l).reduce64(123456789ull);
    BigUInt v = a.reconstructCoeff(5);
    EXPECT_EQ(v.modSmall(~0ull), 123456789ull);
    EXPECT_TRUE(a.reconstructCoeff(0).isZero());
}

TEST(RnsPoly, CrtReconstructionOfRandomBigValue)
{
    const FheContext &ctx = smallContext();
    Rng rng(42);
    // Pick a value below Q via limbs of a known big integer: v = r0 + r1*2^64.
    BigUInt v = BigUInt::fromWords({rng.next(), rng.next() >> 40});
    RnsPoly a(ctx, ctx.qBasis(4));
    for (u32 l = 0; l < a.limbCount(); ++l)
        a.limb(l)[0] = v.modSmall(ctx.modValue(l));
    BigUInt got = a.reconstructCoeff(0);
    EXPECT_TRUE(got == v) << got.toHex() << " vs " << v.toHex();
}

TEST(RnsPoly, RestrictedToSelectsLimbs)
{
    const FheContext &ctx = smallContext();
    Rng rng(43);
    RnsPoly a(ctx, ctx.qpBasis(2));
    a.uniformRandom(rng);
    RnsPoly q_only = a.restrictedTo(ctx.qBasis(2));
    EXPECT_EQ(q_only.limbCount(), 3u);
    for (u32 l = 0; l < 3; ++l)
        EXPECT_EQ(q_only.limbVec(l), a.limbVec(l));
    RnsPoly p_only = a.restrictedTo(ctx.pBasis());
    EXPECT_EQ(p_only.limbVec(0), a.limbVec(3));
    EXPECT_EQ(p_only.limbVec(1), a.limbVec(4));
}

TEST(RnsPoly, MulConstMatchesScalar)
{
    const FheContext &ctx = smallContext();
    Rng rng(44);
    RnsPoly a(ctx, ctx.qBasis(1));
    a.uniformRandom(rng);
    RnsPoly b = a;
    b.mulConstInplace(7);
    for (u32 l = 0; l < a.limbCount(); ++l) {
        const Modulus &m = a.mod(l);
        for (u64 i = 0; i < ctx.n(); ++i)
            EXPECT_EQ(b.limb(l)[i], m.mul(a.limb(l)[i], 7));
    }
}

}  // namespace
}  // namespace crophe::fhe
