#include <gtest/gtest.h>

#include "graph/op.h"

namespace crophe::graph {
namespace {

using Axes = std::vector<StreamAxis>;

TEST(Op, PlainMulUsesOnTheFlyLimbExtension)
{
    // OF-Limb: one plaintext limb fetched, the rest generated on-chip at
    // one extra multiply per element.
    Op op = makeEwMulPlain(1 << 12, 10, "ptx:x");
    EXPECT_EQ(op.auxWords, 1ull << 12);
    EXPECT_EQ(op.flops, 2ull * 10 * (1 << 12));
}

TEST(Op, ElementwiseShape)
{
    Op op = makeEwBinary(OpKind::EwAdd, 1 << 12, 10);
    EXPECT_EQ(op.inputWords, 2ull * 10 * (1 << 12));
    EXPECT_EQ(op.outputWords, 10ull * (1 << 12));
    EXPECT_EQ(op.flops, 10ull * (1 << 12));
    EXPECT_TRUE(op.isElementwise());
    EXPECT_FALSE(op.isTransform());
    EXPECT_EQ(op.streamAxes, (Axes{StreamAxis::SlotN, StreamAxis::Limb}));
    EXPECT_FALSE(op.orientationSwitch);
}

TEST(Op, MonolithicNttCannotStreamOnN)
{
    Op op = makeNtt(OpKind::Ntt, 1 << 12, 8);
    EXPECT_TRUE(op.isTransform());
    EXPECT_TRUE(op.orientationSwitch);
    EXPECT_EQ(op.streamAxes, Axes{StreamAxis::Limb});
    // N/2 * logN butterflies per limb.
    EXPECT_EQ(op.flops, 8ull * (1 << 11) * 12);
}

TEST(Op, DecomposedNttStreamsOnInstanceAxis)
{
    Op col = makeNttStep(OpKind::INttCol, 64, 256, 8);
    EXPECT_EQ(col.streamAxes, (Axes{StreamAxis::SlotN1, StreamAxis::Limb}));
    EXPECT_FALSE(col.orientationSwitch);
    Op row = makeNttStep(OpKind::NttRow, 64, 256, 8);
    EXPECT_EQ(row.streamAxes, (Axes{StreamAxis::SlotN2, StreamAxis::Limb}));

    // Col+row flops together equal the monolithic transform's flops.
    Op mono = makeNtt(OpKind::Ntt, 64 * 256, 8);
    EXPECT_EQ(col.flops + row.flops, mono.flops);
}

TEST(Op, BConvReducesOverLimbs)
{
    Op op = makeBConv(1 << 12, 6, 13);
    EXPECT_EQ(op.streamAxes, Axes{StreamAxis::SlotN});
    EXPECT_EQ(op.outputWords, 13ull << 12);
    // Small constant matrix only.
    EXPECT_LT(op.auxWords, 1000u);
}

TEST(Op, KskInnerProdCarriesEvk)
{
    Op op = makeKskInnerProd(1 << 12, 30, 4, "evk:mult");
    EXPECT_EQ(op.auxKey, "evk:mult");
    // 2 × β × limbs × N halved by the PRNG optimization (the a-halves
    // are regenerated on-chip from seeds).
    EXPECT_EQ(op.auxWords, 30ull * (1 << 12) * 4);
    EXPECT_EQ(op.beta, 4u);
}

TEST(Op, AutomorphismIsPermutationOnly)
{
    Op op = makeAutomorphism(1 << 12, 10);
    EXPECT_EQ(op.flops, 0u);
    EXPECT_TRUE(op.orientationSwitch);
}

TEST(Op, KindNamesAreDistinct)
{
    EXPECT_STREQ(opKindName(OpKind::Ntt), "NTT");
    EXPECT_STREQ(opKindName(OpKind::INttCol), "col-iNTT");
    EXPECT_STREQ(opKindName(OpKind::KskInnerProd), "KSKInP");
}

}  // namespace
}  // namespace crophe::graph
