#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "graph/keyswitch_builder.h"
#include "map/mapper.h"
#include "map/trace.h"
#include "sched/ntt_decomp.h"

namespace crophe::map {
namespace {

using graph::Graph;
using graph::OpId;
using graph::OpKind;

sched::SpatialGroup
analyzedChain(const Graph &g, const hw::HwConfig &cfg)
{
    sched::SpatialGroup group;
    bool ok = sched::analyzeSpatialGroup(g, g.topoOrder(), cfg, false,
                                         group);
    EXPECT_TRUE(ok);
    return group;
}

TEST(Mapper, PlacementsStayOnTheArray)
{
    Graph g;
    OpId in = g.add(graph::makeInput(1 << 16, 24));
    OpId a = g.add(graph::makeEwBinary(OpKind::EwMul, 1 << 16, 24));
    OpId b = g.add(graph::makeEwBinary(OpKind::EwAdd, 1 << 16, 24));
    g.connect(in, a);
    g.connect(a, b);
    auto cfg = hw::configCrophe64();
    auto group = analyzedChain(g, cfg);
    GroupMapping m = mapGroup(group, g, cfg);

    ASSERT_EQ(m.placements.size(), group.allocs.size());
    for (const auto &p : m.placements) {
        // Runs start on the array and clamp at its edges.
        EXPECT_LT(p.firstPe, cfg.numPes);
        EXPECT_LE(p.centroidX, static_cast<double>(cfg.meshX));
    }
    // Every internal edge has a positive hop distance.
    ASSERT_EQ(m.edges.size(), group.internalEdges.size());
    for (const auto &e : m.edges)
        EXPECT_GE(e.hops, 1u);
}

TEST(Mapper, TransposeFlipsPlacementDirection)
{
    // col-iNTT -> twiddle -> transpose -> row-iNTT: the row step must sit
    // on the right side of the array (Figure 4).
    Graph g;
    OpId col = g.add(graph::makeNttStep(OpKind::INttCol, 256, 256, 6));
    OpId tw = g.add(graph::makeTwiddle(1 << 16, 6));
    OpId tr = g.add(graph::makeTranspose(1 << 16, 6));
    OpId row = g.add(graph::makeNttStep(OpKind::INttRow, 256, 256, 6));
    g.connect(col, tw);
    g.connect(tw, tr);
    g.connect(tr, row);

    auto cfg = hw::configCrophe64();
    auto group = analyzedChain(g, cfg);
    GroupMapping m = mapGroup(group, g, cfg);

    double col_x = -1, row_x = -1;
    for (const auto &p : m.placements) {
        if (p.op == col)
            col_x = p.centroidX;
        if (p.op == row)
            row_x = p.centroidX;
    }
    ASSERT_GE(col_x, 0.0);
    ASSERT_GE(row_x, 0.0);
    EXPECT_GT(row_x, col_x);
}

/**
 * Reference placement: the per-PE walk the mapper once ran, one PE id at
 * a time with a running double sum per axis. The closed-form runs must
 * reproduce its ids, centroids and hop counts bit for bit.
 */
struct WalkedGroup
{
    std::vector<std::vector<u32>> peIds;  ///< per alloc (empty: transpose)
    std::vector<double> centroidX, centroidY;
    std::vector<u32> edgeHops;
};

WalkedGroup
walkPlacement(const sched::SpatialGroup &group, const Graph &g,
              const hw::HwConfig &cfg)
{
    WalkedGroup w;
    u64 requested = 0;
    for (const auto &alloc : group.allocs)
        if (g.op(alloc.op).kind != OpKind::Transpose)
            requested += alloc.pes;
    double scale = requested > cfg.numPes
                       ? static_cast<double>(cfg.numPes) /
                             static_cast<double>(requested)
                       : 1.0;
    bool reversed = false;
    u32 next_forward = 0, next_backward = cfg.numPes - 1;
    for (const auto &alloc : group.allocs) {
        std::vector<u32> ids;
        if (g.op(alloc.op).kind == OpKind::Transpose) {
            reversed = !reversed;
            w.peIds.push_back(ids);
            w.centroidX.push_back(static_cast<double>(cfg.meshX));
            w.centroidY.push_back(cfg.meshY / 2.0);
            continue;
        }
        u32 pes = std::max<u32>(
            1, static_cast<u32>(static_cast<double>(alloc.pes) * scale));
        for (u32 k = 0; k < pes; ++k) {
            if (!reversed) {
                ids.push_back(next_forward);
                next_forward = std::min(next_forward + 1, cfg.numPes - 1);
            } else {
                ids.push_back(next_backward);
                next_backward = next_backward == 0 ? 0 : next_backward - 1;
            }
        }
        double sx = 0, sy = 0;
        for (u32 pe : ids) {
            sx += pe / cfg.meshY;
            sy += pe % cfg.meshY;
        }
        w.centroidX.push_back(sx / ids.size());
        w.centroidY.push_back(sy / ids.size());
        w.peIds.push_back(std::move(ids));
    }
    auto position = [&](OpId op) {
        u32 at = 0;
        for (u32 i = 0; i < group.allocs.size(); ++i)
            if (group.allocs[i].op == op)
                at = i;
        return at;
    };
    for (const auto &e : group.internalEdges) {
        const u32 f = position(e.from), t = position(e.to);
        u32 hops = static_cast<u32>(std::lround(
            std::abs(w.centroidX[f] - w.centroidX[t]) +
            std::abs(w.centroidY[f] - w.centroidY[t])));
        w.edgeHops.push_back(std::max<u32>(1, hops));
    }
    return w;
}

/** The PE ids a placed run stands for. */
std::vector<u32>
runIds(const PePlacement &p, const hw::HwConfig &cfg)
{
    std::vector<u32> ids;
    for (u32 k = 0; k < p.pes; ++k) {
        if (!p.reversed)
            ids.push_back(static_cast<u32>(
                std::min<u64>(u64{p.firstPe} + k, cfg.numPes - 1)));
        else
            ids.push_back(p.firstPe >= k ? p.firstPe - k : 0);
    }
    return ids;
}

/** Seeded random group: a chain of element-wise ops and transposes with
 *  skewed PE requests, plus a few skip edges. */
sched::SpatialGroup
randomGroup(std::mt19937 &rng, Graph &g)
{
    sched::SpatialGroup group;
    const u32 n = 1 + rng() % 12;
    for (u32 i = 0; i < n; ++i) {
        const bool transpose = rng() % 4 == 0;
        OpId id = g.add(transpose ? graph::makeTranspose(1 << 10, 2)
                                  : graph::makeEwBinary(OpKind::EwAdd,
                                                        1 << 10, 2));
        sched::OpAlloc a;
        a.op = id;
        // Mostly small requests, sometimes none, sometimes the whole
        // array several times over: drives both the clamp at the array
        // edges and the degraded rescale.
        switch (rng() % 4) {
          case 0: a.pes = 0; break;
          case 1: a.pes = 1 + rng() % 4; break;
          case 2: a.pes = 1 + rng() % 64; break;
          default: a.pes = 1 + rng() % 1024; break;
        }
        group.allocs.push_back(a);
        if (i > 0)
            group.internalEdges.push_back(
                {group.allocs[i - 1].op, id, sched::EdgeMode::Pipelined});
        if (i > 1 && rng() % 3 == 0)
            group.internalEdges.push_back(
                {group.allocs[rng() % (i - 1)].op, id,
                 sched::EdgeMode::Materialized});
    }
    return group;
}

TEST(Mapper, ClosedFormRunsMatchThePerPeWalkExactly)
{
    std::mt19937 rng(20260);
    u32 clamped_forward = 0, clamped_backward = 0, degraded = 0;
    for (u32 trial = 0; trial < 3000; ++trial) {
        hw::HwConfig cfg = hw::configCrophe64();
        cfg.meshY = 1 + rng() % 16;
        cfg.numPes = 1 + rng() % 256;
        cfg.meshX = (cfg.numPes + cfg.meshY - 1) / cfg.meshY;
        Graph g;
        sched::SpatialGroup group = randomGroup(rng, g);
        SCOPED_TRACE("trial " + std::to_string(trial));

        const WalkedGroup ref = walkPlacement(group, g, cfg);
        const GroupMapping m = mapGroup(group, g, cfg);
        ASSERT_EQ(m.placements.size(), group.allocs.size());
        u64 requested = 0;
        for (u32 i = 0; i < group.allocs.size(); ++i) {
            const PePlacement &p = m.placements[i];
            EXPECT_EQ(p.op, group.allocs[i].op);
            const std::vector<u32> ids = runIds(p, cfg);
            EXPECT_EQ(ids, ref.peIds[i]);
            // Exact, not approximately equal: the sums are integers.
            EXPECT_TRUE(p.centroidX == ref.centroidX[i]);
            EXPECT_TRUE(p.centroidY == ref.centroidY[i]);
            if (g.op(p.op).kind == OpKind::Transpose)
                continue;
            requested += group.allocs[i].pes;
            if (ids.size() > 1 && ids.back() == ids[ids.size() - 2])
                ++(p.reversed ? clamped_backward : clamped_forward);
        }
        degraded += requested > cfg.numPes;
        ASSERT_EQ(m.edges.size(), ref.edgeHops.size());
        for (u32 e = 0; e < m.edges.size(); ++e)
            EXPECT_EQ(m.edges[e].hops, ref.edgeHops[e]);
    }
    // The seeded population really exercises the edge cases.
    EXPECT_GT(clamped_forward, 50u);
    EXPECT_GT(clamped_backward, 50u);
    EXPECT_GT(degraded, 500u);
}

TEST(Mapper, CentroidsOfRealGroupsMatchThePerPeWalk)
{
    // Analyzed groups of a four-step-rewritten key switch: real
    // allocations, several transposes per group, on a healthy and on a
    // degraded (scaled-down) array.
    graph::FheParams p = graph::paramsArk();
    Graph base;
    graph::buildKeySwitch(base, p, 10, graph::kNoOp, "evk");
    Graph g = sched::rewriteNttDecomposition(base, 256);
    auto topo = g.topoOrder();
    for (u32 pes : {0u, 37u}) {
        hw::HwConfig cfg = hw::configCrophe64();
        u32 transposes = 0;
        for (std::size_t at = 0; at + 8 <= topo.size(); at += 8) {
            std::vector<OpId> window(topo.begin() + at,
                                     topo.begin() + at + 8);
            sched::SpatialGroup group;
            if (!sched::analyzeSpatialGroup(g, window, cfg, false, group))
                continue;
            hw::HwConfig run = cfg;
            if (pes != 0)
                run.numPes = pes;  // fewer live PEs than analyzed for
            const WalkedGroup ref = walkPlacement(group, g, run);
            const GroupMapping m = mapGroup(group, g, run);
            for (u32 i = 0; i < group.allocs.size(); ++i) {
                EXPECT_TRUE(m.placements[i].centroidX == ref.centroidX[i]);
                EXPECT_TRUE(m.placements[i].centroidY == ref.centroidY[i]);
                transposes +=
                    g.op(group.allocs[i].op).kind == OpKind::Transpose;
            }
            for (u32 e = 0; e < m.edges.size(); ++e)
                EXPECT_EQ(m.edges[e].hops, ref.edgeHops[e]);
        }
        EXPECT_GT(transposes, 1u);
    }
}

TEST(Trace, ChunkTotalsMatchGroupAnalysis)
{
    graph::FheParams p = graph::paramsArk();
    Graph g;
    graph::buildKeySwitch(g, p, 10, graph::kNoOp, "evk");
    auto cfg = hw::configCrophe64();

    auto topo = g.topoOrder();
    std::vector<OpId> window(topo.begin(),
                             topo.begin() + std::min<std::size_t>(
                                                6, topo.size()));
    sched::SpatialGroup group;
    ASSERT_TRUE(sched::analyzeSpatialGroup(g, window, cfg, false, group));
    GroupMapping m = mapGroup(group, g, cfg);
    GroupTrace t = buildTrace(group, m, g, cfg);

    ASSERT_EQ(t.ops.size(), group.allocs.size());
    u64 sram = 0, dram = 0;
    for (const auto &top : t.ops) {
        EXPECT_GE(top.chunks, 1u);
        sram += top.sramWordsPerChunk * top.chunks;
        dram += top.dramWordsPerChunk * top.chunks;
    }
    // Apportioning rounds down per chunk; totals must be close.
    EXPECT_LE(sram, group.sramWords);
    EXPECT_LE(dram, group.dramWords);
    if (group.sramWords > 0) {
        EXPECT_GT(sram, group.sramWords / 2);
    }
}

TEST(Trace, PipelinedDepsAreMarked)
{
    Graph g;
    OpId in = g.add(graph::makeInput(1 << 16, 24));
    OpId a = g.add(graph::makeEwBinary(OpKind::EwMul, 1 << 16, 24));
    OpId ntt = g.add(graph::makeNtt(OpKind::Ntt, 1 << 16, 24));
    OpId bconv = g.add(graph::makeBConv(1 << 16, 24, 30));
    g.connect(in, a);
    g.connect(a, ntt);
    g.connect(ntt, bconv);

    auto cfg = hw::configCrophe64();
    sched::SpatialGroup group;
    ASSERT_TRUE(sched::analyzeSpatialGroup(g, g.topoOrder(), cfg, false,
                                           group));
    GroupMapping m = mapGroup(group, g, cfg);
    GroupTrace t = buildTrace(group, m, g, cfg);

    // bconv depends on ntt via a barrier (orientation switch); a on in is
    // pipelined.
    bool saw_pipelined = false, saw_barrier = false;
    for (const auto &top : t.ops) {
        for (const auto &dep : top.deps) {
            if (dep.pipelined)
                saw_pipelined = true;
            else
                saw_barrier = true;
        }
    }
    EXPECT_TRUE(saw_pipelined);
    EXPECT_TRUE(saw_barrier);
}

}  // namespace
}  // namespace crophe::map
