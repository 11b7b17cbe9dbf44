#include <gtest/gtest.h>

#include "graph/graph.h"

namespace crophe::graph {
namespace {

Graph
diamond()
{
    Graph g;
    OpId in = g.add(makeInput(1 << 10, 4));
    OpId l = g.add(makeEwBinary(OpKind::EwMul, 1 << 10, 4));
    OpId r = g.add(makeEwBinary(OpKind::EwAdd, 1 << 10, 4));
    OpId out = g.add(makeOutput(1 << 10, 4));
    g.connect(in, l);
    g.connect(in, r);
    g.connect(l, out);
    g.connect(r, out);
    return g;
}

TEST(Graph, TopoOrderRespectsEdges)
{
    Graph g = diamond();
    auto order = g.topoOrder();
    ASSERT_EQ(order.size(), 4u);
    std::vector<u32> pos(4);
    for (u32 i = 0; i < 4; ++i)
        pos[order[i]] = i;
    EXPECT_LT(pos[0], pos[1]);
    EXPECT_LT(pos[0], pos[2]);
    EXPECT_LT(pos[1], pos[3]);
    EXPECT_LT(pos[2], pos[3]);
}

TEST(GraphDeath, CycleIsDetected)
{
    Graph g;
    OpId a = g.add(makeEwBinary(OpKind::EwAdd, 16, 1));
    OpId b = g.add(makeEwBinary(OpKind::EwAdd, 16, 1));
    g.connect(a, b);
    g.connect(b, a);
    EXPECT_DEATH(g.topoOrder(), "cycle");
}

TEST(Graph, TotalFlopsSums)
{
    Graph g = diamond();
    EXPECT_EQ(g.totalFlops(), 2ull * 4 * (1 << 10));
}

TEST(Graph, AuxDeduplicatedByKey)
{
    Graph g;
    OpId a = g.add(makeEwMulPlain(1 << 10, 4, "ptx:shared"));
    OpId b = g.add(makeEwMulPlain(1 << 10, 4, "ptx:shared"));
    OpId c = g.add(makeEwMulPlain(1 << 10, 4, "ptx:other"));
    (void)a;
    (void)b;
    (void)c;
    // With OF-Limb, each distinct plaintext key contributes N words.
    EXPECT_EQ(g.totalAuxWords(), 2ull * (1 << 10));
}

TEST(Graph, StructuralHashMatchesIsomorphicSubgraphs)
{
    // Two copies of the same chain inside one graph hash identically.
    Graph g;
    OpId a1 = g.add(makeEwBinary(OpKind::EwMul, 1 << 10, 4));
    OpId a2 = g.add(makeEwBinary(OpKind::EwAdd, 1 << 10, 4));
    g.connect(a1, a2);
    OpId b1 = g.add(makeEwBinary(OpKind::EwMul, 1 << 10, 4));
    OpId b2 = g.add(makeEwBinary(OpKind::EwAdd, 1 << 10, 4));
    g.connect(b1, b2);

    EXPECT_EQ(g.structuralHash({a1, a2}), g.structuralHash({b1, b2}));
    EXPECT_NE(g.structuralHash({a1, a2}), g.structuralHash({a2, a1}));
    // Different shape => different hash.
    Graph g2;
    OpId c1 = g2.add(makeEwBinary(OpKind::EwMul, 1 << 10, 8));
    OpId c2 = g2.add(makeEwBinary(OpKind::EwAdd, 1 << 10, 8));
    g2.connect(c1, c2);
    EXPECT_NE(g.structuralHash({a1, a2}), g2.structuralHash({c1, c2}));
}

TEST(Graph, StructuralHashValuesArePinned)
{
    // Plan-cache keys are built on this hash, so its values must not
    // drift: a changed value silently orphans every cached plan.
    Graph g = diamond();
    EXPECT_EQ(g.structuralHash({0, 1, 2, 3}), 0xeffd685ae94c8da0ull);
    // A partial window: consumers outside it hash as a sentinel.
    EXPECT_EQ(g.structuralHash({0, 2}), 0xbdbb666ad6bff623ull);
    EXPECT_EQ(g.structuralHash({3, 2, 1, 0}), 0x0d259623850e997cull);
    EXPECT_EQ(g.structuralHash({}), 0x14650fb0739d0383ull);
}

TEST(Graph, RestoreEdgesKeepsListOrder)
{
    Graph g = diamond();
    g.restoreEdges({{2, 1}, {3}, {3}, {}}, {{}, {0}, {0}, {2, 1}});
    EXPECT_EQ(g.consumers(0), (std::vector<OpId>{2, 1}));
    EXPECT_EQ(g.producers(3), (std::vector<OpId>{2, 1}));
}

TEST(GraphDeath, RestoreEdgesRejectsInconsistentLists)
{
    using Lists = std::vector<std::vector<OpId>>;
    Graph g = diamond();
    EXPECT_DEATH(g.restoreEdges(Lists(3), Lists(4)), "cover every node");
    EXPECT_DEATH(g.restoreEdges({{0}, {}, {}, {}}, {{0}, {}, {}, {}}),
                 "bad successor edge");
    EXPECT_DEATH(g.restoreEdges({{9}, {}, {}, {}}, Lists(4)),
                 "bad successor edge");
    EXPECT_DEATH(g.restoreEdges(Lists(4), {{}, {8}, {}, {}}),
                 "bad predecessor edge");
    EXPECT_DEATH(g.restoreEdges({{1}, {}, {}, {}}, Lists(4)),
                 "disagree");
    EXPECT_DEATH(g.restoreEdges({{1, 1}, {}, {}, {}}, {{}, {0}, {}, {}}),
                 "disagree");
}

TEST(Graph, ToStringMentionsEveryOp)
{
    Graph g = diamond();
    std::string s = g.toString();
    EXPECT_NE(s.find("EwMul"), std::string::npos);
    EXPECT_NE(s.find("EwAdd"), std::string::npos);
}

}  // namespace
}  // namespace crophe::graph
