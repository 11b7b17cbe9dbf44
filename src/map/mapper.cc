#include "map/mapper.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace crophe::map {

using graph::OpKind;

namespace {

/** Exact Σ ⌊p/m⌋ and Σ (p mod m) over the PE ids p < n. */
struct ColRowSums
{
    u64 col = 0;
    u64 row = 0;
};

ColRowSums
prefixSums(u64 n, u64 m)
{
    const u64 q = n / m, r = n % m;
    // Ids below q·m fill q whole columns; the r left over sit in column q.
    return {m * (q * (q - 1) / 2) + r * q,
            q * (m * (m - 1) / 2) + r * (r - 1) / 2};
}

/**
 * Centroid of a clamped PE run (see PePlacement). The column and row
 * sums are integers, so they are exact; converted to double they equal,
 * bit for bit, what summing the run one PE at a time in double produces
 * (every partial sum stays far below 2^53).
 */
void
setRunCentroid(PePlacement &p, const hw::HwConfig &cfg)
{
    const u64 m = cfg.meshY;
    // The run's distinct ids are [lo, hi]; the remaining `repeats` ids
    // repeat the edge PE it was clamped at.
    u64 lo, hi, edge;
    if (!p.reversed) {
        lo = p.firstPe;
        hi = std::min<u64>(lo + p.pes, cfg.numPes) - 1;
        edge = cfg.numPes - 1;
    } else {
        hi = p.firstPe;
        lo = hi + 1 > p.pes ? hi + 1 - p.pes : 0;
        edge = 0;
    }
    const u64 repeats = p.pes - (hi - lo + 1);
    const ColRowSums upto_hi = prefixSums(hi + 1, m);
    const ColRowSums below_lo = prefixSums(lo, m);
    const u64 sx = upto_hi.col - below_lo.col + repeats * (edge / m);
    const u64 sy = upto_hi.row - below_lo.row + repeats * (edge % m);
    p.centroidX = static_cast<double>(sx) / static_cast<double>(p.pes);
    p.centroidY = static_cast<double>(sy) / static_cast<double>(p.pes);
}

}  // namespace

GroupMapping
mapGroup(const sched::SpatialGroup &group, const graph::Graph &g,
         const hw::HwConfig &cfg)
{
    GroupMapping mapping;
    CROPHE_ASSERT(cfg.numPes > 0, "mapper needs at least one live PE");

    // A degraded array (DESIGN.md §9) can leave a group sized for more
    // PEs than remain; scale every op's share down proportionally so the
    // group still spreads across the live PEs instead of piling onto the
    // clamp boundary at the array edge.
    u64 requested = 0;
    for (const auto &alloc : group.allocs)
        if (g.op(alloc.op).kind != OpKind::Transpose)
            requested += alloc.pes;
    double scale = requested > cfg.numPes
                       ? static_cast<double>(cfg.numPes) /
                             static_cast<double>(requested)
                       : 1.0;
    if (scale < 1.0)
        CROPHE_WARN_ONCE("spatial group requests ", requested,
                         " PEs on a ", cfg.numPes,
                         "-PE array: rescaling allocations");

    // Split the op sequence at Transpose ops into segments; odd segments
    // (after a transpose) are placed right-to-left (Figure 4). Each
    // segment fills consecutive PE columns in its direction, clamped at
    // the array edge. The group's allocs are already in topological
    // order.
    bool reversed = false;
    u32 next_pe_forward = 0;                      // fills 0, 1, 2, ...
    u32 next_pe_backward = cfg.numPes - 1;        // fills N-1, N-2, ...

    mapping.placements.reserve(group.allocs.size());
    for (const auto &alloc : group.allocs) {
        PePlacement p;
        p.op = alloc.op;
        if (g.op(alloc.op).kind == OpKind::Transpose) {
            // The transpose unit lives beside the array; flip direction.
            reversed = !reversed;
            p.centroidX = static_cast<double>(cfg.meshX);  // array edge
            p.centroidY = cfg.meshY / 2.0;
            mapping.placements.push_back(p);
            continue;
        }

        p.pes = std::max<u32>(
            1, static_cast<u32>(static_cast<double>(alloc.pes) * scale));
        p.reversed = reversed;
        if (!reversed) {
            p.firstPe = next_pe_forward;
            next_pe_forward = static_cast<u32>(std::min<u64>(
                u64{next_pe_forward} + p.pes, cfg.numPes - 1));
        } else {
            p.firstPe = next_pe_backward;
            next_pe_backward =
                next_pe_backward > p.pes ? next_pe_backward - p.pes : 0;
        }
        setRunCentroid(p, cfg);
        mapping.placements.push_back(p);
    }

    // Hop distance per internal edge (XY routing => Manhattan distance).
    graph::PositionIndex position(
        static_cast<u32>(group.allocs.size()),
        [&](u32 i) { return group.allocs[i].op; });
    mapping.edges.reserve(group.internalEdges.size());
    for (const auto &e : group.internalEdges) {
        PlacedEdge pe;
        pe.producer = position.find(e.from);
        pe.consumer = position.find(e.to);
        CROPHE_ASSERT(pe.producer != graph::PositionIndex::kNotFound &&
                          pe.consumer != graph::PositionIndex::kNotFound,
                      "edge endpoints missing from the group");
        const auto &pf = mapping.placements[pe.producer];
        const auto &pt = mapping.placements[pe.consumer];
        u32 hops = static_cast<u32>(std::lround(
            std::abs(pf.centroidX - pt.centroidX) +
            std::abs(pf.centroidY - pt.centroidY)));
        pe.hops = std::max<u32>(1, hops);
        mapping.edges.push_back(pe);
    }
    return mapping;
}

}  // namespace crophe::map
