#include "sched/group.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "common/math_util.h"

namespace crophe::sched {

using graph::Graph;
using graph::Op;
using graph::OpId;
using graph::OpKind;

void
SchedStats::accumulate(const SchedStats &other)
{
    cycles += other.cycles;
    dramWords += other.dramWords;
    auxDramWords += other.auxDramWords;
    sramWords += other.sramWords;
    nocWords += other.nocWords;
    flops += other.flops;
}

u64
optionsDigest(const SchedOptions &opt)
{
    u64 h = 1469598103934665603ull;
    auto mix = [&h](u64 v) {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        h *= 1099511628211ull;
    };
    mix(opt.crossOpDataflow ? 1 : 0);
    mix(opt.nttDecomp ? 1 : 0);
    mix(opt.maxGroupOps);
    mix(opt.clusters);
    mix(opt.shareAuxAcrossClusters ? 1 : 0);
    // pruneSearch provably does not change the chosen schedule (the bound
    // is admissible, DESIGN.md §8), but it stays in the key as insurance:
    // a future inexact bound must never validate against exact-search
    // cache entries.
    mix(opt.pruneSearch ? 1 : 0);
    mix(opt.rotSchemeMask);
    mix(opt.ksDataflowMask);
    // deadlineSeconds is deliberately NOT mixed: a deadline can only
    // produce degraded schedules, which are never inserted into the plan
    // cache, so every cached entry is the exact result for this digest.
    return h;
}

double
dramCycles(const hw::HwConfig &cfg, u64 words)
{
    return static_cast<double>(words) * cfg.wordBytes() * cfg.freqGhz /
           cfg.dramGBs;
}

double
sramCycles(const hw::HwConfig &cfg, u64 words)
{
    return static_cast<double>(words) * cfg.wordBytes() * cfg.freqGhz /
           cfg.sramGBs;
}

double
nocCycles(const hw::HwConfig &cfg, u64 words)
{
    // Aggregate mesh capacity: each PE can inject/eject a quarter-lane-width
    // packet per cycle.
    double words_per_cycle =
        static_cast<double>(cfg.numPes) * cfg.lanes / 4.0;
    return static_cast<double>(words) / words_per_cycle;
}

namespace {

hw::FuClass
fuClassOf(const Op &op)
{
    if (op.isTransform())
        return hw::FuClass::Ntt;
    switch (op.kind) {
      case OpKind::BConv:
      case OpKind::KskInnerProd:
        return hw::FuClass::BConv;
      case OpKind::Automorphism:
      case OpKind::Transpose:
        return hw::FuClass::Automorphism;
      default:
        return hw::FuClass::Elementwise;
    }
}

/** Allocation weight: compute load, with a floor for data-movement ops. */
u64
allocWeight(const Op &op)
{
    return std::max<u64>(op.flops, op.outputWords / 8 + 1);
}

}  // namespace

bool
analyzeSpatialGroup(const Graph &g, const std::vector<OpId> &ops,
                    const hw::HwConfig &cfg, bool mad, SpatialGroup &out)
{
    CROPHE_ASSERT(!ops.empty(), "empty group");
    out = SpatialGroup();

    // MAD-style fusion is limited to element-wise chains: it cannot fuse
    // across orientation switches, matrix ops, or key-switch inner
    // products (Section III-A).
    if (mad && ops.size() > 1) {
        for (OpId id : ops) {
            const Op &op = g.op(id);
            if (!(op.isElementwise() || op.kind == OpKind::Input ||
                  op.kind == OpKind::Output)) {
                return false;
            }
        }
        if (ops.size() > 3)
            return false;  // MAD fuses a few ops at a time
    }

    // --- PE allocation proportional to load (Section IV-B) ---------------
    u64 total_weight = 0;
    for (OpId id : ops)
        total_weight += allocWeight(g.op(id));
    if (ops.size() > cfg.numPes)
        return false;

    u32 assigned = 0;
    for (OpId id : ops) {
        OpAlloc a;
        a.op = id;
        double share = static_cast<double>(allocWeight(g.op(id))) /
                       static_cast<double>(std::max<u64>(1, total_weight));
        a.pes = std::max<u32>(
            1, static_cast<u32>(share * cfg.numPes));
        a.chunks = chunkCount(g.op(id), cfg);
        assigned += a.pes;
        out.allocs.push_back(a);
    }
    // Normalize overshoot from rounding: shrink the largest allocations.
    while (assigned > cfg.numPes) {
        auto it = std::max_element(
            out.allocs.begin(), out.allocs.end(),
            [](const OpAlloc &x, const OpAlloc &y) { return x.pes < y.pes; });
        if (it->pes <= 1)
            return false;
        --it->pes;
        --assigned;
    }

    // --- Edge planning ----------------------------------------------------
    const u32 n = static_cast<u32>(ops.size());
    graph::PositionIndex position(n, [&](u32 i) { return ops[i]; });
    auto inside = [&position](OpId id) {
        return position.find(id) != graph::PositionIndex::kNotFound;
    };
    u64 buffer = 0;
    for (OpId id : ops) {
        for (OpId c : g.consumers(id)) {
            if (!inside(c))
                continue;
            EdgePlan plan = planEdge(g, id, c, cfg);
            buffer += plan.bufferWords;
            if (plan.mode == EdgeMode::Pipelined) {
                out.nocWords += plan.volumeWords;
            } else if (g.op(c).kind == OpKind::Transpose) {
                // Staged in the transpose unit, reached over the crossbar.
                out.nocWords += plan.volumeWords;
            } else {
                // Materialized through the global buffer: write + read.
                out.sramWords += 2 * plan.volumeWords;
            }
            out.internalEdges.push_back(plan);
        }
    }

    // --- External traffic ---------------------------------------------------
    std::map<std::string, u64> aux;
    for (OpId id : ops) {
        const Op &op = g.op(id);
        out.flops += op.flops;

        if (op.kind == OpKind::Input) {
            out.dramWords += op.outputWords;  // fresh operand from DRAM
            continue;
        }
        if (op.kind == OpKind::Output) {
            out.dramWords += op.inputWords;  // result to DRAM
            continue;
        }

        // Inputs produced outside the group arrive via the global buffer.
        for (OpId p : g.producers(id)) {
            if (!inside(p) && g.op(p).kind != OpKind::Input) {
                out.sramWords += g.op(p).outputWords;
                out.extWords += g.op(p).outputWords;
            }
        }
        // Outputs consumed outside the group return to the global buffer.
        bool external_consumer = g.consumers(id).empty();
        for (OpId c : g.consumers(id))
            external_consumer |= !inside(c);
        if (external_consumer && op.outputWords > 0) {
            out.sramWords += op.outputWords;
            out.extWords += op.outputWords;
        }

        // Auxiliary constants (evk digits, plaintext diagonals).
        if (op.auxWords > 0) {
            if (op.auxKey.empty()) {
                // Tiny keyless constants (BConv matrices): fetched inline.
                out.dramWords += op.auxWords;
                out.nocWords += op.auxWords;
            } else if (mad) {
                // MAD fetches aux per consumer; no cross-operator sharing
                // (residency caching is applied later at schedule level).
                out.dramWords += op.auxWords;
                out.nocWords += op.auxWords;
                out.auxNeeds.emplace_back(op.auxKey, op.auxWords);
            } else {
                auto [it, fresh] = aux.emplace(op.auxKey, op.auxWords);
                (void)it;
                if (fresh)
                    out.dramWords += op.auxWords;
                // Multicast to every consumer PE group.
                out.nocWords += op.auxWords;
            }
        }
    }
    for (auto &[key, words] : aux)
        out.auxNeeds.emplace_back(key, words);

    out.bufferWords = buffer;
    // In-group staging may claim at most a quarter of the global buffer:
    // the rest must stay available for live handoff tensors and resident
    // aux constants. Groups that would materialize more than that are
    // split by the DP (the orientation switch becomes a sequential
    // boundary) — or avoided altogether via NTT decomposition.
    if (static_cast<double>(buffer) > 0.25 * cfg.sramWords())
        return false;

    // --- Compute time: longest path with pipelining overlap ---------------
    // Indexed by window position, as allocs are.
    std::vector<double> dur(n, 0.0);

    // Per-class capacity on specialized hardware.
    double class_mults[hw::kFuClassCount];
    for (u32 k = 0; k < hw::kFuClassCount; ++k)
        class_mults[k] = cfg.homogeneous
                             ? static_cast<double>(cfg.multsPerCycle())
                             : cfg.multsPerCycle() * cfg.fuFraction[k];

    for (u32 i = 0; i < n; ++i) {
        const Op &op = g.op(ops[i]);
        if (op.kind == OpKind::Input || op.kind == OpKind::Output)
            continue;  // pseudo-ops: traffic charged to DRAM, not to PEs
        double mults;
        if (cfg.homogeneous) {
            mults = static_cast<double>(out.allocs[i].pes) * cfg.lanes;
        } else {
            // Specialized designs: the op can only use its own FU class.
            mults = class_mults[static_cast<u32>(fuClassOf(op))];
        }
        double compute = op.flops / std::max(1.0, mults);
        // Data-movement ops still occupy their datapath for the stream;
        // the stream width is the op's full lane allocation (its FU
        // class's lanes on specialized designs).
        double stream =
            static_cast<double>(op.outputWords) / std::max(1.0, mults);
        dur[i] = std::max(compute, stream);
    }

    // Longest path: pipelined edges overlap all but one granule; material-
    // ized edges serialize producer and consumer. A producer not yet
    // reached (ops out of topological order) counts as finished at 0.
    std::vector<double> finish(n, 0.0);
    double group_finish = 0.0;
    for (u32 i = 0; i < n; ++i) {  // ops is a topological window
        double start = 0.0;
        for (const auto &e : out.internalEdges) {
            if (e.to != ops[i])
                continue;
            const u32 from = position.find(e.from);
            if (e.mode == EdgeMode::Materialized) {
                start = std::max(start, finish[from]);
            } else {
                double p_start = finish[from] - dur[from];
                double fill = dur[from] /
                              std::max<u64>(1, chunkCount(g.op(e.from), cfg));
                start = std::max(start, p_start + fill);
            }
        }
        finish[i] = start + dur[i];
        group_finish = std::max(group_finish, finish[i]);
    }

    // On specialized hardware, same-class work also serializes on the
    // shared units even when the path would allow overlap.
    if (!cfg.homogeneous) {
        double class_flops[hw::kFuClassCount] = {0, 0, 0, 0};
        for (OpId id : ops)
            class_flops[static_cast<u32>(fuClassOf(g.op(id)))] +=
                g.op(id).flops;
        for (u32 k = 0; k < hw::kFuClassCount; ++k)
            group_finish = std::max(
                group_finish, class_flops[k] / std::max(1.0, class_mults[k]));
    }

    out.computeCycles = group_finish;
    out.cycles = std::max({group_finish, dramCycles(cfg, out.dramWords),
                           sramCycles(cfg, out.sramWords),
                           nocCycles(cfg, out.nocWords)});
    return true;
}

}  // namespace crophe::sched
