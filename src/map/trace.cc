#include "map/trace.h"

#include <algorithm>

#include "common/logging.h"
#include "sched/loopnest.h"

namespace crophe::map {

using graph::Op;

namespace {

/** Raw per-op demand estimates used to apportion the group totals. @{ */
double
sramWeight(const Op &op)
{
    return static_cast<double>(op.inputWords + op.outputWords);
}

double
dramWeight(const Op &op)
{
    return static_cast<double>(op.auxWords) +
           (op.kind == graph::OpKind::Input ? op.outputWords : 0) +
           (op.kind == graph::OpKind::Output ? op.inputWords : 0);
}
/** @} */

}  // namespace

void
buildTrace(const sched::SpatialGroup &group, const GroupMapping &mapping,
           const graph::Graph &g, const hw::HwConfig &cfg, GroupTrace &trace)
{
    CROPHE_ASSERT(mapping.placements.size() == group.allocs.size() &&
                      mapping.edges.size() == group.internalEdges.size(),
                  "mapping does not match its group");
    trace.ops.clear();
    double sram_sum = 0.0, dram_sum = 0.0;

    for (const auto &alloc : group.allocs) {
        const Op &op = g.op(alloc.op);

        TraceOp top;
        top.op = alloc.op;
        top.chunks = alloc.chunks;

        double mults = cfg.homogeneous
                           ? static_cast<double>(alloc.pes) * cfg.lanes
                           : static_cast<double>(cfg.multsPerCycle()) / 4.0;
        double compute = static_cast<double>(op.flops) /
                         std::max(1.0, mults);
        double stream = static_cast<double>(op.outputWords) /
                        std::max(1.0, static_cast<double>(alloc.pes) *
                                          cfg.lanes);
        top.computePerChunk = std::max(compute, stream) /
                              static_cast<double>(top.chunks);
        trace.ops.push_back(top);

        sram_sum += sramWeight(op);
        dram_sum += dramWeight(op);
    }

    // Apportion the analyzed group totals so the trace is consistent with
    // the analytical model.
    for (auto &top : trace.ops) {
        const Op &op = g.op(top.op);
        double sram_share = sram_sum > 0 ? sramWeight(op) / sram_sum
                                         : 1.0 / trace.ops.size();
        double dram_share = dram_sum > 0 ? dramWeight(op) / dram_sum
                                         : 1.0 / trace.ops.size();
        top.sramWordsPerChunk = static_cast<u64>(
            sram_share * group.sramWords / top.chunks);
        top.dramWordsPerChunk = static_cast<u64>(
            dram_share * group.dramWords / top.chunks);
    }

    // Edge dependencies, grouped by consumer, and the NoC volume assigned
    // to the consumer. Count each consumer's edges, turn the counts into
    // ranges, then fill each range in edge order.
    for (const PlacedEdge &placed : mapping.edges)
        ++trace.ops[placed.consumer].depEnd;
    u32 at = 0;
    for (auto &top : trace.ops) {
        top.depBegin = at;
        at += top.depEnd;
        top.depEnd = top.depBegin;
    }
    trace.deps.resize(mapping.edges.size());
    for (u32 e = 0; e < group.internalEdges.size(); ++e) {
        const auto &edge = group.internalEdges[e];
        const PlacedEdge &placed = mapping.edges[e];
        auto &consumer = trace.ops[placed.consumer];
        TraceDep &dep = trace.deps[consumer.depEnd++];
        dep.producerIndex = placed.producer;
        dep.pipelined = edge.mode == sched::EdgeMode::Pipelined;
        dep.hops = placed.hops;
        consumer.nocWordsPerChunk +=
            edge.volumeWords / std::max<u64>(1, consumer.chunks);
    }
}

}  // namespace crophe::map
