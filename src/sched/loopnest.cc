#include "sched/loopnest.h"

#include <algorithm>

#include "common/logging.h"
#include "common/math_util.h"

namespace crophe::sched {

using graph::Op;
using graph::OpId;
using graph::OpKind;
using graph::StreamAxis;

namespace {

bool
isSlotAxis(StreamAxis a)
{
    return a == StreamAxis::SlotN || a == StreamAxis::SlotN1 ||
           a == StreamAxis::SlotN2;
}

/** Can two concrete axes drive one shared top loop? */
bool
axisPairMatches(StreamAxis p, StreamAxis c)
{
    if (p == c)
        return true;
    // A full-N streamer can follow any slot sub-loop and vice versa; the
    // two *different* tiled axes N1 vs N2 cannot match (Figure 7's
    // mid-decomposition switch).
    if (p == StreamAxis::SlotN && isSlotAxis(c))
        return true;
    if (c == StreamAxis::SlotN && isSlotAxis(p))
        return true;
    return false;
}

/** Best shared axis: slot-style preferred (finest granule). */
bool
bestSharedAxis(const Op &p, const Op &c, bool &slot_style)
{
    bool found = false;
    slot_style = false;
    for (StreamAxis pa : p.streamAxes) {
        for (StreamAxis ca : c.streamAxes) {
            if (!axisPairMatches(pa, ca))
                continue;
            found = true;
            if (isSlotAxis(pa) && isSlotAxis(ca))
                slot_style = true;
        }
    }
    return found;
}

}  // namespace

bool
axesCompatible(const Op &producer, const Op &consumer)
{
    bool slot_style = false;
    return bestSharedAxis(producer, consumer, slot_style);
}

EdgePlan
planEdge(const graph::Graph &g, OpId from, OpId to, const hw::HwConfig &cfg)
{
    const Op &p = g.op(from);
    const Op &c = g.op(to);

    EdgePlan plan;
    plan.from = from;
    plan.to = to;
    plan.volumeWords = p.outputWords;

    if (c.kind == OpKind::Transpose) {
        // Served by the dedicated transpose unit: a full orientation switch,
        // but its staging SRAM is the unit's own few-MB buffer, not the
        // global buffer (Section IV-A).
        plan.mode = EdgeMode::Materialized;
        plan.granuleWords = plan.volumeWords;
        plan.bufferWords = 0;
        return plan;
    }

    bool slot_style = false;
    if (!bestSharedAxis(p, c, slot_style)) {
        // Orientation switch: the consumer iterates the data in an order
        // the producer cannot emit (e.g. limb-major iNTT feeding
        // coefficient-major BConv). The tensor must be materialized.
        plan.mode = EdgeMode::Materialized;
        plan.granuleWords = plan.volumeWords;
        plan.bufferWords = plan.volumeWords;
        return plan;
    }

    plan.mode = EdgeMode::Pipelined;
    if (slot_style) {
        // Finest granule: a lane-width slice per co-iterated limb row.
        plan.granuleWords = std::max<u64>(1, std::min<u64>(p.n, cfg.lanes));
        plan.bufferWords =
            2 * plan.granuleWords * std::min<u64>(std::max<u32>(1, p.limbsOut), 4);
    } else {
        // Limb-axis pipelining: one limb (N words) per chunk.
        plan.granuleWords = std::max<u64>(1, p.n);
        plan.bufferWords = 2 * plan.granuleWords;
    }
    return plan;
}

u64
chunkCount(const Op &op, const hw::HwConfig &cfg)
{
    u64 words = std::max<u64>(op.outputWords, op.inputWords);
    if (words == 0)
        return 1;
    u64 granule = std::max<u64>(1, cfg.lanes);
    u64 chunks = ceilDiv(words, granule);
    // Cap so simulation stays cheap; latency fidelity at this granularity
    // is unaffected (chunks remain >> pipeline depth).
    return std::clamp<u64>(chunks, 1, kMaxChunks);
}

}  // namespace crophe::sched
