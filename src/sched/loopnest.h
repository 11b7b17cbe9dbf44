#ifndef CROPHE_SCHED_LOOPNEST_H_
#define CROPHE_SCHED_LOOPNEST_H_

/**
 * @file
 * Loop-nest matching for fine-grained pipelining/sharing (Section V-A).
 *
 * Fine-grained forwarding between two operators requires them to iterate
 * their shared data in the same order at the top loop levels. Operators
 * advertise the axes they can keep outermost (graph::StreamAxis); this
 * module decides edge-level compatibility and the resulting forwarding
 * granule, and flags orientation switches (Section V-B) that force full
 * materialization.
 */

#include <vector>

#include "graph/graph.h"
#include "hw/config.h"

namespace crophe::sched {

/** How one producer→consumer edge inside a group is realized. */
enum class EdgeMode : u8
{
    Pipelined,     ///< fine-grained chunk forwarding (matched loops)
    Materialized,  ///< full tensor buffered (orientation switch)
};

/** Analysis result for one edge. */
struct EdgePlan
{
    graph::OpId from = graph::kNoOp;
    graph::OpId to = graph::kNoOp;
    EdgeMode mode = EdgeMode::Pipelined;
    u64 volumeWords = 0;   ///< full tensor volume
    u64 granuleWords = 0;  ///< forwarded chunk size when pipelined
    u64 bufferWords = 0;   ///< SRAM/regfile residency this edge needs
};

/**
 * Shared streaming axis of two operators, if any. SlotN matches SlotN1 and
 * SlotN2 (a tiled sub-loop of N); SlotN1 never matches SlotN2 — that is
 * exactly the mid-decomposition orientation switch of Figure 7.
 */
bool axesCompatible(const graph::Op &producer, const graph::Op &consumer);

/**
 * Plan one intra-group edge. The granule is one streaming chunk:
 * `lanes` words per limb row for SlotN-style streaming, or one limb
 * (n words) when only the limb axis matches.
 */
EdgePlan planEdge(const graph::Graph &g, graph::OpId from, graph::OpId to,
                  const hw::HwConfig &cfg);

/**
 * Most chunks an op is split into. The simulator books every chunk on
 * each resource it touches, so the cap bounds its work per op.
 */
inline constexpr u64 kMaxChunks = 64;

/**
 * Chunk count used to pipeline/simulate @p op: the number of granules its
 * output decomposes into, in [1, kMaxChunks].
 */
u64 chunkCount(const graph::Op &op, const hw::HwConfig &cfg);

}  // namespace crophe::sched

#endif  // CROPHE_SCHED_LOOPNEST_H_
