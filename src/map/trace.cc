#include "map/trace.h"

#include <algorithm>

#include "common/logging.h"
#include "sched/loopnest.h"

namespace crophe::map {

using graph::Op;

GroupTrace
buildTrace(const sched::SpatialGroup &group, const GroupMapping &mapping,
           const graph::Graph &g, const hw::HwConfig &cfg)
{
    CROPHE_ASSERT(mapping.placements.size() == group.allocs.size() &&
                      mapping.edges.size() == group.internalEdges.size(),
                  "mapping does not match its group");
    GroupTrace trace;
    trace.ops.reserve(group.allocs.size());

    // Raw per-op demand estimates used to apportion the group totals.
    std::vector<double> sram_w(group.allocs.size(), 0.0);
    std::vector<double> dram_w(group.allocs.size(), 0.0);
    double sram_sum = 0.0, dram_sum = 0.0;

    for (u32 i = 0; i < group.allocs.size(); ++i) {
        const auto &alloc = group.allocs[i];
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
        trace.ops.push_back(std::move(top));

        sram_w[i] = static_cast<double>(op.inputWords + op.outputWords);
        dram_w[i] = static_cast<double>(op.auxWords) +
                    (op.kind == graph::OpKind::Input ? op.outputWords : 0) +
                    (op.kind == graph::OpKind::Output ? op.inputWords : 0);
        sram_sum += sram_w[i];
        dram_sum += dram_w[i];
    }

    // Apportion the analyzed group totals so the trace is consistent with
    // the analytical model.
    for (u32 i = 0; i < trace.ops.size(); ++i) {
        auto &top = trace.ops[i];
        double sram_share =
            sram_sum > 0 ? sram_w[i] / sram_sum : 1.0 / trace.ops.size();
        double dram_share =
            dram_sum > 0 ? dram_w[i] / dram_sum : 1.0 / trace.ops.size();
        top.sramWordsPerChunk = static_cast<u64>(
            sram_share * group.sramWords / top.chunks);
        top.dramWordsPerChunk = static_cast<u64>(
            dram_share * group.dramWords / top.chunks);
    }

    // Edge dependencies and NoC volume assigned to the consumer.
    for (u32 e = 0; e < group.internalEdges.size(); ++e) {
        const auto &edge = group.internalEdges[e];
        const PlacedEdge &placed = mapping.edges[e];
        TraceDep dep;
        dep.producerIndex = placed.producer;
        dep.pipelined = edge.mode == sched::EdgeMode::Pipelined;
        dep.hops = placed.hops;
        auto &consumer = trace.ops[placed.consumer];
        consumer.deps.push_back(dep);
        consumer.nocWordsPerChunk +=
            edge.volumeWords / std::max<u64>(1, consumer.chunks);
    }
    return trace;
}

}  // namespace crophe::map
