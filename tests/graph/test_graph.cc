#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

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

TEST(Graph, ContentHashValuesArePinned)
{
    // Plan-cache keys and the serving catalog's template hashes are built
    // on this hash, so its values must not drift: a changed value renames
    // every on-disk plan and moves every template hash.
    Graph g = diamond();
    EXPECT_EQ(g.contentHash(), 0xa40e7ec0514267deull);
    EXPECT_EQ(Graph{}.contentHash(), 0x023c0b4f6729d5c2ull);
    // Adjacency order is part of the content: the same edges connected
    // in another order hash differently.
    Graph h;
    for (OpId id = 0; id < g.size(); ++id)
        h.add(g.op(id));
    h.connect(0, 2);
    h.connect(0, 1);
    h.connect(1, 3);
    h.connect(2, 3);
    EXPECT_NE(h.contentHash(), g.contentHash());
}

TEST(Graph, ConnectKeepsListOrder)
{
    // Group analysis and the plan-cache key read both adjacency lists in
    // insertion order, so connect() must keep that order verbatim.
    Graph g = diamond();
    EXPECT_EQ(g.consumers(0), (std::vector<OpId>{1, 2}));
    EXPECT_EQ(g.producers(3), (std::vector<OpId>{1, 2}));
    Graph h;
    for (OpId v = 0; v < g.size(); ++v)
        h.add(g.op(v));
    h.connect(0, 2);
    h.connect(0, 1);
    h.connect(2, 3);
    h.connect(1, 3);
    EXPECT_EQ(h.consumers(0), (std::vector<OpId>{2, 1}));
    EXPECT_EQ(h.producers(3), (std::vector<OpId>{2, 1}));
}

TEST(Graph, CopiesShareStorageUntilOneIsEdited)
{
    const Graph g = diamond();
    Graph copy = g;
    EXPECT_EQ(&copy.ops(), &g.ops());
    EXPECT_EQ(&copy.consumers(0), &g.consumers(0));

    // Editing the copy clones it first; the source keeps its ops and edges.
    const OpId extra = copy.add(makeOutput(1 << 10, 4));
    copy.connect(3, extra);
    EXPECT_NE(&copy.ops(), &g.ops());
    EXPECT_EQ(g.size(), 4u);
    EXPECT_TRUE(g.consumers(3).empty());
    EXPECT_EQ(copy.size(), 5u);
    EXPECT_EQ(copy.consumers(3), (std::vector<OpId>{extra}));
    EXPECT_EQ(copy.producers(extra), (std::vector<OpId>{3}));
}

TEST(Graph, EditingTheSourceLeavesItsCopiesAlone)
{
    Graph g = diamond();
    {
        const Graph copy = g;
        g.connect(1, 2);
        EXPECT_EQ(copy.consumers(1), (std::vector<OpId>{3}));
        EXPECT_EQ(copy.producers(2), (std::vector<OpId>{0}));
        EXPECT_EQ(g.consumers(1), (std::vector<OpId>{3, 2}));
        EXPECT_EQ(g.producers(2), (std::vector<OpId>{0, 1}));
        g.add(makeOutput(1 << 10, 4));
        EXPECT_EQ(copy.size(), 4u);
        EXPECT_EQ(g.size(), 5u);
    }
    // With no copy left, an edit writes in place.
    const std::vector<Op> *storage = &g.ops();
    g.connect(2, 4);
    EXPECT_EQ(&g.ops(), storage);
    EXPECT_EQ(g.producers(4), (std::vector<OpId>{2}));
}

TEST(Graph, CopiesDroppedOnOtherThreadsDoNotRaceLaterEdits)
{
    // Each reader copies its copy again, reads both and drops them, and
    // only then raises a relaxed flag, which orders nothing. An edit that
    // finds every copy gone writes in place, so the reference count alone
    // must order the readers' reads before that write (ThreadSanitizer
    // checks it); an edit that finds a copy still held clones instead.
    const u64 flops = diamond().totalFlops();
    for (int round = 0; round < 20; ++round) {
        Graph g = diamond();
        std::atomic<int> done{0};
        std::vector<std::thread> readers;
        for (int t = 0; t < 4; ++t) {
            readers.emplace_back([copy = g, flops, &done]() mutable {
                Graph again = copy;
                EXPECT_EQ(again.totalFlops() + copy.totalFlops(), 2 * flops);
                EXPECT_EQ(again.consumers(0), (std::vector<OpId>{1, 2}));
                again = Graph();
                copy = Graph();
                done.fetch_add(1, std::memory_order_relaxed);
            });
        }
        // Odd rounds edit once every reader is done, even ones at once.
        while (round % 2 == 1 && done.load(std::memory_order_relaxed) < 4)
            std::this_thread::yield();
        g.connect(1, 2);
        g.add(makeOutput(1 << 10, 4));
        for (auto &t : readers)
            t.join();
        EXPECT_EQ(g.producers(2), (std::vector<OpId>{0, 1}));
        EXPECT_EQ(g.size(), 5u);
    }
}

}  // namespace
}  // namespace crophe::graph
