#include <gtest/gtest.h>

#include "common/rng.h"
#include "fhe/biguint.h"

namespace crophe::fhe {
namespace {

TEST(BigUInt, ZeroAndBasics)
{
    BigUInt z;
    EXPECT_TRUE(z.isZero());
    EXPECT_EQ(z.toHex(), "0");
    BigUInt one(1);
    EXPECT_FALSE(one.isZero());
    EXPECT_EQ(one.toHex(), "1");
    EXPECT_LT(z.compare(one), 0);
    EXPECT_GT(one.compare(z), 0);
    EXPECT_EQ(one.compare(one), 0);
}

TEST(BigUInt, AddCarriesAcrossWords)
{
    BigUInt a(~0ull);
    a.addInplace(BigUInt(1));
    EXPECT_EQ(a.toHex(), "10000000000000000");
    EXPECT_EQ(a.wordCount(), 2u);
    EXPECT_EQ(a.modSmall(3), ((~0ull) % 3 + 1) % 3);
}

TEST(BigUInt, SubBorrowsAcrossWords)
{
    BigUInt a = BigUInt::fromWords({0, 1});  // 2^64
    a.subInplace(BigUInt(1));
    EXPECT_EQ(a.toHex(), "ffffffffffffffff");
}

TEST(BigUInt, MulSmallAgainstU128)
{
    Rng rng(30);
    for (int i = 0; i < 200; ++i) {
        u64 x = rng.next() >> 1;
        u64 y = rng.next() >> 1;
        BigUInt b(x);
        b.mulSmallInplace(y);
        u128 expect = static_cast<u128>(x) * y;
        EXPECT_EQ(b.modSmall(0xffffffffffffffc5ull),
                  static_cast<u64>(expect % 0xffffffffffffffc5ull));
    }
}

TEST(BigUInt, ModSmallMatchesProductStructure)
{
    // (a*b*c) mod m computed both ways.
    std::vector<u64> fs = {123456789ull, 987654321ull, 555555555ull};
    BigUInt p = productOf(fs);
    u64 m = 1000000007ull;
    u64 expect = 1;
    for (u64 f : fs)
        expect = static_cast<u64>(static_cast<u128>(expect) * (f % m) % m);
    EXPECT_EQ(p.modSmall(m), expect);
}

TEST(BigUInt, HalfIsFloorDivTwo)
{
    BigUInt a = BigUInt::fromWords({1, 1});  // 2^64 + 1
    BigUInt h = a.half();                    // 2^63
    EXPECT_EQ(h.toHex(), "8000000000000000");
    BigUInt b(7);
    EXPECT_EQ(b.half().modSmall(100), 3u);
}

TEST(BigUInt, ToDoubleApproximation)
{
    BigUInt a(1);
    for (int i = 0; i < 5; ++i)
        a.mulSmallInplace(1ull << 20);  // 2^100
    double d = a.toDouble();
    EXPECT_NEAR(d / 0x1.0p100, 1.0, 1e-12);
}

TEST(BigUInt, AddMulSmallAccumulates)
{
    BigUInt acc(0);
    BigUInt base(1000000000ull);
    acc.addMulSmall(base, 7);
    acc.addMulSmall(base, 3);
    EXPECT_EQ(acc.modSmall(~0ull), 10000000000ull % (~0ull));
    EXPECT_EQ(acc.modSmall(97), (10000000000ull) % 97);
}

TEST(BigUIntDeath, UnderflowPanics)
{
    EXPECT_DEATH(
        {
            BigUInt a(1);
            a.subInplace(BigUInt(2));
        },
        "underflow");
}

}  // namespace
}  // namespace crophe::fhe
