#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "common/math_util.h"
#include "fault/fault_injector.h"
#include "map/mapper.h"
#include "map/trace.h"
#include "sched/scheduler.h"
#include "sim/dram.h"
#include "sim/event_queue.h"
#include "sim/noc.h"
#include "sim/pe.h"
#include "sim/sram.h"
#include "sim/transpose_unit.h"
#include "telemetry/telemetry.h"

namespace crophe::sim {

namespace {

/** Shared chip resources that persist across groups within one segment. */
struct Chip
{
    explicit Chip(const hw::HwConfig &cfg)
        : dram(cfg), sram(cfg), noc(cfg), transpose(cfg)
    {
    }

    DramModel dram;
    SramModel sram;
    NocModel noc;
    TransposeUnit transpose;
};

/**
 * Consumers of each traced op, distinct and ascending: op i's are
 * of[at[i] .. at[i + 1]).
 */
struct ConsumerLists
{
    std::vector<u32> at;
    std::vector<u32> of;
};

ConsumerLists
consumerLists(const map::GroupTrace &trace)
{
    const u32 num_ops = static_cast<u32>(trace.ops.size());
    std::vector<std::pair<u32, u32>> edges;  // (producer, consumer)
    for (u32 j = 0; j < num_ops; ++j)
        for (const auto &dep : trace.ops[j].deps)
            edges.emplace_back(dep.producerIndex, j);
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

    ConsumerLists lists;
    lists.at.assign(num_ops + 1, 0);
    lists.of.reserve(edges.size());
    for (const auto &[producer, consumer] : edges) {
        ++lists.at[producer + 1];
        lists.of.push_back(consumer);
    }
    for (u32 i = 0; i < num_ops; ++i)
        lists.at[i + 1] += lists.at[i];
    return lists;
}

/**
 * Simulate one spatial group starting at @p group_start; returns the
 * group's completion time. Trace spans and fault draws are compiled into
 * the issue loop only with @p hooks, which a recorder or an injector
 * needs.
 */
SimTime
simulateGroup(const sched::SpatialGroup &group, const graph::Graph &g,
              const hw::HwConfig &cfg, Chip &chip, SimTime group_start,
              EventQueue &queue, SimStats &stats,
              telemetry::TraceRecorder *rec, bool hooks)
{
    map::GroupMapping mapping = map::mapGroup(group, g, cfg);
    map::GroupTrace trace = map::buildTrace(group, mapping, g, cfg);

    const u32 num_ops = static_cast<u32>(trace.ops.size());
    std::vector<PeGroup> pes;
    pes.reserve(num_ops);
    for (const auto &top : trace.ops)
        pes.emplace_back(top.computePerChunk);

    // One trace track per PE group; ids are memoized by name, so group
    // slot i maps to the same track across all spatial groups.
    std::vector<u32> pe_tracks;
    if (rec != nullptr) {
        pe_tracks.resize(num_ops);
        for (u32 i = 0; i < num_ops; ++i)
            pe_tracks[i] = rec->track("PE group " + std::to_string(i));
    }

    // finish[first[i] + c]: completion time of chunk c of op i
    // (-1 = not done).
    std::vector<u64> first(num_ops + 1, 0);
    for (u32 i = 0; i < num_ops; ++i) {
        // A run's length must fit EventQueue::scheduleRun's count.
        CROPHE_ASSERT(trace.ops[i].chunks <= ~0u, "op ", i, " has ",
                      trace.ops[i].chunks, " chunks");
        first[i + 1] = first[i] + trace.ops[i].chunks;
    }
    std::vector<SimTime> finish(first[num_ops], -1.0);
    std::vector<u64> next_chunk(num_ops, 0);

    const ConsumerLists wake = consumerLists(trace);

    // NoC distance of each op's forwarded inputs (at least one hop).
    std::vector<u32> noc_hops(num_ops, 1);
    for (u32 i = 0; i < num_ops; ++i)
        for (const auto &dep : trace.ops[i].deps)
            noc_hops[i] = std::max(noc_hops[i], dep.hops);

    SimTime group_end = group_start;

    // Readiness check for chunk c of op i.
    auto dep_ready = [&](u32 i, u64 c, SimTime &ready) {
        ready = group_start;
        const u64 chunks = trace.ops[i].chunks;
        for (const auto &dep : trace.ops[i].deps) {
            const auto &p = trace.ops[dep.producerIndex];
            u64 needed;
            if (dep.pipelined) {
                // Chunk c consumes producer chunk floor(c·Cp/Ci), which is
                // c when both are chunked alike (the common case, which
                // needs no division).
                needed = p.chunks == chunks
                             ? c
                             : std::min<u64>(p.chunks - 1,
                                             c * p.chunks / chunks);
            } else {
                needed = p.chunks - 1;  // full-tensor barrier
            }
            SimTime f = finish[first[dep.producerIndex] + needed];
            if (f < 0)
                return false;
            ready = std::max(ready, f);
        }
        return true;
    };

    // Issue op i's chunks from @p now until one waits on a dependency,
    // as one run: each chunk acquires its memory inputs, the NoC, then
    // the PE group (or the transpose unit). Every chunk reserves its
    // resources when issued, ahead of simulated time (DESIGN.md §4); the
    // resources' frontiers stay in the runs' locals until the run ends.
    // The run's chunks finish in non-decreasing order, so its consumers'
    // wake-ups go to the queue as one run too. An op with every chunk
    // issued is retired: its pending wake-ups would find nothing to do.
    std::vector<u32> woken;  // consumers of a run with chunks left
    auto try_issue = [&](u32 i, SimTime now, auto hooks) {
        constexpr bool kHooks = decltype(hooks)::value;
        const auto &top = trace.ops[i];
        const auto &op = g.op(top.op);
        // Transpose ops stream through the transpose unit instead of the
        // PE datapath.
        const bool transposes = op.kind == graph::OpKind::Transpose;
        const u64 transpose_words = op.inputWords / top.chunks;
        SimTime *done_at = finish.data() + first[i];

        DramModel::Run dram(chip.dram, top.dramWordsPerChunk, i);
        FifoRun sram = chip.sram.run(top.sramWordsPerChunk);
        NocModel::Run noc(chip.noc, top.nocWordsPerChunk, noc_hops[i]);
        FifoRun transpose =
            chip.transpose.run(std::max<u64>(1, transpose_words));
        PeGroup pe = pes[i];

        const u64 c0 = next_chunk[i];
        u64 c = c0;
        for (; c < top.chunks; ++c) {
            SimTime ready;
            if (!dep_ready(i, c, ready))
                break;
            ready = std::max(ready, now);
            // Off-chip and buffer traffic; forwarded inputs traverse the
            // mesh.
            SimTime t = dram.access<kHooks>(ready);
            t = sram.serve<kHooks>(t);
            t = noc.transfer<kHooks>(t);
            SimTime done;
            if (transposes) {
                done = transpose.serve<kHooks>(t);
            } else {
                done = pe.executeChunk(t);
                if constexpr (kHooks) {
                    if (rec != nullptr && top.computePerChunk > 0.0) {
                        rec->complete(pe_tracks[i], op.label,
                                      done - top.computePerChunk,
                                      top.computePerChunk,
                                      {{"chunk", static_cast<double>(c)}});
                    }
                }
            }
            done_at[c] = done;
        }

        if (c > c0) {
            dram.commit();
            sram.commit();
            noc.commit();
            transpose.commit();
            pes[i] = pe;
            next_chunk[i] = c;
            if (transposes)
                stats.transposeWords += (c - c0) * transpose_words;
            group_end = std::max(group_end, done_at[c - 1]);

            // One wake-up per issued chunk and consumer that still has
            // chunks to issue. The queue keeps pointers into finish,
            // which outlives them: the group drains the queue before it
            // returns.
            woken.clear();
            for (u32 k = wake.at[i]; k < wake.at[i + 1]; ++k) {
                const u32 j = wake.of[k];
                if (next_chunk[j] < trace.ops[j].chunks)
                    woken.push_back(j);
            }
            queue.scheduleRun(done_at + c0, static_cast<u32>(c - c0), woken);
        }
        if (c == top.chunks)
            queue.retire(i);
    };
    auto drain = [&](auto hooks) {
        while (!queue.empty()) {
            const Event ev = queue.pop();
            try_issue(ev.op, ev.when, hooks);
        }
    };

    // Seed all ops (those with deps will simply not issue yet).
    for (u32 i = 0; i < num_ops; ++i)
        queue.schedule(group_start, i);
    if (hooks)
        drain(std::true_type{});
    else
        drain(std::false_type{});

    for (u32 i = 0; i < num_ops; ++i) {
        CROPHE_ASSERT(next_chunk[i] == trace.ops[i].chunks,
                      "deadlock: op ", g.op(trace.ops[i].op).label,
                      " stuck at chunk ", next_chunk[i]);
        stats.peBusy += pes[i].busyCycles();
    }
    return group_end;
}

}  // namespace

SimStats
simulateSchedule(const sched::Schedule &sched, const hw::HwConfig &cfg,
                 const telemetry::SimTelemetry *telem,
                 const fault::FaultInjector *faults)
{
    SimStats stats;
    Chip chip(cfg);
    EventQueue queue;

    telemetry::TraceRecorder *rec = telem ? telem->trace : nullptr;
    if (rec != nullptr) {
        chip.dram.attachTrace(rec);
        chip.sram.attachTrace(rec);
        chip.noc.attachTrace(rec);
        chip.transpose.attachTrace(rec);
        queue.attachTrace(rec);
    }
    if (faults != nullptr && !faults->plan().empty()) {
        // The models filter empty plans themselves; gating here as well
        // keeps stats.faultsEnabled in lockstep with the models.
        chip.dram.attachFaults(faults);
        chip.noc.attachFaults(faults);
        stats.faultsEnabled = true;
    }
    telemetry::Histogram *group_hist = nullptr;
    if (telem != nullptr && telem->registry != nullptr) {
        group_hist = &telem->registry->histogram(
            telem->statsPrefix + ".group.log2cycles",
            "log2(cycles) distribution of spatial-group durations", 0.0,
            32.0, 32);
    }

    // Pipeline drain + reconfiguration cost of the fully synchronous
    // group switch (Section IV-A).
    constexpr double kGroupSwitchCycles = 64.0;

    const bool hooks = rec != nullptr || stats.faultsEnabled;
    SimTime now = 0.0;
    for (const auto &tg : sched.sequence) {
        for (const auto &group : tg.groups) {
            // Synchronous group switching: the next group starts after
            // the previous completes on all PEs (Section IV-A).
            SimTime group_start = now;
            now = simulateGroup(group, sched.graph, cfg, chip, now, queue,
                                stats, rec, hooks);
            if (rec != nullptr) {
                rec->instant("group switch", now);
                rec->counter("dram.words", now,
                             static_cast<double>(chip.dram.totalWords()));
                rec->counter("sram.words", now,
                             static_cast<double>(chip.sram.totalWords()));
                rec->counter("noc.words", now,
                             static_cast<double>(chip.noc.totalWords()));
            }
            if (group_hist != nullptr)
                group_hist->sample(
                    std::log2(std::max(1.0, now - group_start)));
            now += kGroupSwitchCycles;
            stats.flops += group.flops;
        }
    }
    stats.cycles = now;
    stats.dramWords = chip.dram.totalWords();
    stats.sramWords = chip.sram.totalWords();
    stats.nocWords = chip.noc.totalWords();
    stats.dramRowHits = chip.dram.rowHits();
    stats.dramRowMisses = chip.dram.rowMisses();
    stats.events = queue.processed();
    if (stats.faultsEnabled) {
        stats.faultDramEcc = chip.dram.faultEccCorrected();
        stats.faultDramRetried = chip.dram.faultRetriedAccesses();
        stats.faultDramRetries = chip.dram.faultRetries();
        stats.faultDramStalls = chip.dram.faultStalledBursts();
        stats.faultNocReroutes = chip.noc.faultReroutes();
    }
    if (telem != nullptr && telem->registry != nullptr)
        stats.accumulateInto(*telem->registry, telem->statsPrefix);
    return stats;
}

sched::WorkloadResult
simulateWorkload(const graph::Workload &w, const hw::HwConfig &cfg,
                 const sched::SchedOptions &opt,
                 const telemetry::SimTelemetry *telem,
                 const fault::FaultInjector *faults)
{
    hw::validateConfig(cfg);
    const hw::HwConfig cluster_cfg = sched::clusterConfig(cfg, opt.clusters);

    std::vector<sched::Schedule> schedules;
    schedules.reserve(w.segments.size());
    for (const auto &seg : w.segments) {
        if (telem != nullptr && telem->trace != nullptr)
            telem->trace->beginProcess(seg.name);
        sched::Schedule s =
            sched::scheduleGraph(seg.graph, cluster_cfg, opt);
        SimStats sim = simulateSchedule(s, cluster_cfg, telem, faults);
        // Replace the analytical cycle estimate with the simulated one;
        // warm repetitions scale by the same contention ratio.
        double ratio = s.stats.cycles > 0 ? sim.cycles / s.stats.cycles
                                          : 1.0;
        ratio = std::max(1.0, ratio);
        s.stats.cycles = sim.cycles;
        s.warmStats.cycles *= ratio;
        schedules.push_back(std::move(s));
    }
    return sched::aggregateWorkload(w, cfg, schedules, opt.clusters,
                                    opt.shareAuxAcrossClusters);
}

}  // namespace crophe::sim
