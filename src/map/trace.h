#ifndef CROPHE_MAP_TRACE_H_
#define CROPHE_MAP_TRACE_H_

/**
 * @file
 * Execution traces: the mapper's output consumed by the cycle-level
 * simulator (Section VI, "Implementation"). A trace describes each
 * operator's chunked execution, per-chunk resource demands, and chunk
 * dependencies along the pipelined/materialized edges.
 */

#include <span>
#include <vector>

#include "map/mapper.h"
#include "sched/group.h"

namespace crophe::map {

/** Dependency of a traced op on another traced op in the same group. */
struct TraceDep
{
    u32 producerIndex;  ///< index into GroupTrace::ops
    bool pipelined;     ///< chunk-wise dependency vs full-tensor barrier
    u32 hops;           ///< NoC hop distance of the forwarded data
};

/** One operator's chunked execution. */
struct TraceOp
{
    graph::OpId op = graph::kNoOp;
    u64 chunks = 1;
    double computePerChunk = 0.0;  ///< cycles of PE work per chunk
    u64 dramWordsPerChunk = 0;     ///< off-chip words fetched per chunk
    u64 sramWordsPerChunk = 0;     ///< global-buffer words per chunk
    u64 nocWordsPerChunk = 0;      ///< forwarded words per chunk
    u32 depBegin = 0;  ///< first of the op's entries in GroupTrace::deps
    u32 depEnd = 0;    ///< one past the op's last entry
};

/** Trace of one spatial group. */
struct GroupTrace
{
    std::vector<TraceOp> ops;
    /** Every op's deps, grouped by consumer in op order; one consumer's
     *  keep the order of SpatialGroup::internalEdges. */
    std::vector<TraceDep> deps;

    /** The deps of op @p i. */
    std::span<const TraceDep>
    depsOf(u32 i) const
    {
        return {deps.data() + ops[i].depBegin,
                deps.data() + ops[i].depEnd};
    }
};

/**
 * Build the trace of one spatial group into @p trace from its analysis
 * and its placement @p mapping (mapGroup's result for @p group).
 * Resource totals in the trace match the group's analyzed totals. Every
 * field of @p trace is overwritten; its storage is reused, so a caller
 * tracing group after group allocates only to grow it.
 */
void buildTrace(const sched::SpatialGroup &group, const GroupMapping &mapping,
                const graph::Graph &g, const hw::HwConfig &cfg,
                GroupTrace &trace);

}  // namespace crophe::map

#endif  // CROPHE_MAP_TRACE_H_
