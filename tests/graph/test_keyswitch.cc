#include <gtest/gtest.h>

#include "graph/keyswitch_builder.h"

namespace crophe::graph {
namespace {

TEST(KeySwitchGraph, OpCountMatchesFormula)
{
    FheParams p = paramsArk();
    for (u32 level : {1u, 5u, 11u, 23u}) {
        Graph g;
        auto nodes = buildKeySwitch(g, p, level, kNoOp, "evk:test");
        (void)nodes;
        // +1 for the Input node buildKeySwitch adds when producer==kNoOp.
        EXPECT_EQ(g.size(), keySwitchOpCount(p, level) + 1)
            << "level " << level;
    }
}

TEST(KeySwitchGraph, StructureIsAcyclicAndConnected)
{
    FheParams p = paramsSharp();
    Graph g;
    auto nodes = buildKeySwitch(g, p, 20, kNoOp, "evk:mult");
    auto order = g.topoOrder();  // panics on cycles
    EXPECT_EQ(order.size(), g.size());

    // Every non-input node is reachable: it has at least one producer.
    for (OpId v = 0; v < g.size(); ++v) {
        if (g.op(v).kind != OpKind::Input) {
            EXPECT_FALSE(g.producers(v).empty()) << v;
        }
    }
    EXPECT_NE(nodes.outB, nodes.outA);
}

TEST(KeySwitchGraph, EvkVolumeMatchesDigitShape)
{
    FheParams p = paramsArk();
    const u32 level = p.L;
    Graph g;
    buildKeySwitch(g, p, level, kNoOp, "evk:mult");

    u64 evk_words = 0;
    u32 inner_count = 0;
    for (const auto &op : g.ops()) {
        if (op.kind == OpKind::KskInnerProd) {
            evk_words += op.auxWords;
            ++inner_count;
        }
    }
    EXPECT_EQ(inner_count, 1u);
    // 2 × β × (α+ℓ+1) × N, halved by PRNG regeneration of the a-halves.
    EXPECT_EQ(evk_words,
              1ull * p.betaAt(level) * p.extLimbsAt(level) * p.n());
}

TEST(KeySwitchGraph, BetaScalesWithLevel)
{
    FheParams p = paramsArk();
    Graph low, high;
    buildKeySwitch(low, p, 5, kNoOp, "k");
    buildKeySwitch(high, p, 23, kNoOp, "k");
    EXPECT_LT(low.size(), high.size());
}

TEST(KeySwitchGraph, DataflowOpCountsMatchFormulas)
{
    FheParams p = paramsArk();
    for (u32 level : {1u, 5u, 11u, 23u}) {
        for (KsDataflow df :
             {KsDataflow::Fused, KsDataflow::OutputStationary,
              KsDataflow::ReorderedModUp}) {
            Graph g;
            buildKeySwitch(g, p, level, kNoOp, "evk:test", df);
            // +1 for the Input node added when producer == kNoOp.
            EXPECT_EQ(g.size(), keySwitchOpCount(p, level, df) + 1)
                << "level " << level << " df " << ksDataflowName(df);
        }
    }
    // The dataflow-aware Fused count is the legacy count.
    EXPECT_EQ(keySwitchOpCount(p, 11),
              keySwitchOpCount(p, 11, KsDataflow::Fused));
}

TEST(KeySwitchGraph, OutputStationarySharesOnePairModDown)
{
    FheParams p = paramsSharp();
    for (KsDataflow df :
         {KsDataflow::Fused, KsDataflow::OutputStationary,
          KsDataflow::ReorderedModUp}) {
        Graph g;
        auto nodes = buildKeySwitch(g, p, 20, kNoOp, "evk:mult", df);
        EXPECT_EQ(g.topoOrder().size(), g.size());
        if (df == KsDataflow::OutputStationary)
            EXPECT_EQ(nodes.outB, nodes.outA) << ksDataflowName(df);
        else
            EXPECT_NE(nodes.outB, nodes.outA) << ksDataflowName(df);
    }
}

TEST(KeySwitchGraph, ReorderedModUpCollapsesForwardTransforms)
{
    FheParams p = paramsArk();
    const u32 level = p.L;
    const u32 beta = p.betaAt(level);
    auto fwd_ntts = [](const Graph &g) {
        u32 count = 0;
        for (const auto &op : g.ops())
            count += op.kind == OpKind::Ntt;
        return count;
    };
    Graph fused, reord;
    buildKeySwitch(fused, p, level, kNoOp, "k", KsDataflow::Fused);
    buildKeySwitch(reord, p, level, kNoOp, "k", KsDataflow::ReorderedModUp);
    // Fused: one forward NTT per digit (+2 in the ModDowns); reordered:
    // one batched forward NTT for all digits (+2 in the ModDowns).
    EXPECT_EQ(fwd_ntts(fused), beta + 2);
    EXPECT_EQ(fwd_ntts(reord), 3u);

    // The batched node covers the same total limb volume the per-digit
    // transforms did, so no work disappears from the cost model.
    u64 fused_limbs = 0, reord_limbs = 0;
    for (const auto &op : fused.ops())
        if (op.kind == OpKind::Ntt)
            fused_limbs += op.limbsOut;
    for (const auto &op : reord.ops())
        if (op.kind == OpKind::Ntt)
            reord_limbs += op.limbsOut;
    EXPECT_EQ(fused_limbs, reord_limbs);
}

}  // namespace
}  // namespace crophe::graph
