#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "map/mapper.h"
#include "map/trace.h"
#include "sched/scheduler.h"
#include "sim/dram.h"
#include "sim/fifo.h"
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
 * One simulateSchedule call's per-group working set, reused from group
 * to group so that a group allocates only to grow it.
 */
struct GroupScratch
{
    map::GroupMapping mapping;
    map::GroupTrace trace;
    /** finish[first[i] + c]: completion time of chunk c of op i. */
    std::vector<u64> first;
    std::vector<SimTime> finish;
    /** Trace track of PE group slot i, with a recorder attached. */
    std::vector<u32> peTracks;
};

/**
 * Op @p i's share of sim.events: 1 for its issue, plus the chunk count
 * of each distinct producer (DESIGN.md §4).
 */
u64
opEvents(const map::GroupTrace &trace, u32 i)
{
    const auto deps = trace.depsOf(i);
    u64 events = 1;
    for (auto d = deps.begin(); d != deps.end(); ++d)
        if (std::none_of(deps.begin(), d, [&](const map::TraceDep &e) {
                return e.producerIndex == d->producerIndex;
            }))
            events += trace.ops[d->producerIndex].chunks;
    return events;
}

/**
 * Simulate one spatial group starting at @p group_start, on the call's
 * @p scratch; returns the group's completion time. Trace spans and fault
 * draws are compiled into the issue loop only with @p hooks, which a
 * recorder or an injector needs.
 */
SimTime
simulateGroup(const sched::SpatialGroup &group, const graph::Graph &g,
              const hw::HwConfig &cfg, Chip &chip, SimTime group_start,
              SimStats &stats, telemetry::TraceRecorder *rec, bool hooks,
              GroupScratch &scratch)
{
    map::mapGroup(group, g, cfg, scratch.mapping);
    map::buildTrace(group, scratch.mapping, g, cfg, scratch.trace);
    const map::GroupTrace &trace = scratch.trace;

    const u32 num_ops = static_cast<u32>(trace.ops.size());

    // One trace track per PE group slot; slot i maps to the same track
    // across all spatial groups, so a slot's track is made the first
    // time a group reaches it.
    std::vector<u32> &pe_tracks = scratch.peTracks;
    if (rec != nullptr) {
        for (u32 i = static_cast<u32>(pe_tracks.size()); i < num_ops; ++i)
            pe_tracks.push_back(rec->track("PE group " + std::to_string(i)));
    }

    // Every finish time is written by its chunk's issue before a consumer
    // reads it, so the reused array needs no clearing.
    std::vector<u64> &first = scratch.first;
    first.resize(num_ops + 1);
    for (u32 i = 0; i < num_ops; ++i)
        first[i + 1] = first[i] + trace.ops[i].chunks;
    scratch.finish.resize(first[num_ops]);
    SimTime *finish = scratch.finish.data();

    SimTime group_end = group_start;

    // Chunk c of op i is ready at the group's start or once the producer
    // chunks it reads have finished, whichever is later.
    auto ready_at = [&](u32 i, u64 c) {
        SimTime ready = group_start;
        const u64 chunks = trace.ops[i].chunks;
        for (const auto &dep : trace.depsOf(i)) {
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
            ready = std::max(ready,
                             finish[first[dep.producerIndex] + needed]);
        }
        return ready;
    };

    // Issue all of op i's chunks as one run: each chunk acquires its
    // memory inputs, the NoC, then the PE group (or the transpose unit).
    // Every chunk reserves its resources when issued, ahead of simulated
    // time (DESIGN.md §4); the resources' frontiers stay in the run's
    // locals until its last chunk. Ops issue in the group's order, which
    // lists every producer before its consumers, so the producer chunks
    // each chunk reads are booked by then.
    auto issue = [&](u32 i, auto hooks) {
        constexpr bool kHooks = decltype(hooks)::value;
        const auto &top = trace.ops[i];
        const auto &op = g.op(top.op);
        // NoC distance of the op's forwarded inputs (at least one hop).
        u32 hops = 1;
        for (const auto &dep : trace.depsOf(i)) {
            CROPHE_ASSERT(dep.producerIndex < i, "op ", op.label,
                          " is listed before its producer ",
                          g.op(trace.ops[dep.producerIndex].op).label);
            hops = std::max(hops, dep.hops);
        }
        stats.events += opEvents(trace, i);
        // Transpose ops stream through the transpose unit instead of the
        // PE datapath.
        const bool transposes = op.kind == graph::OpKind::Transpose;
        const u64 transpose_words = op.inputWords / top.chunks;
        SimTime *done_at = finish + first[i];

        DramModel::Run dram(chip.dram, top.dramWordsPerChunk, i);
        FifoRun sram = chip.sram.run(top.sramWordsPerChunk);
        NocModel::Run noc(chip.noc, top.nocWordsPerChunk, hops);
        FifoRun transpose =
            chip.transpose.run(std::max<u64>(1, transpose_words));
        PeGroup pe(top.computePerChunk);

        for (u64 c = 0; c < top.chunks; ++c) {
            // Off-chip and buffer traffic; forwarded inputs traverse the
            // mesh.
            SimTime t = dram.access<kHooks>(ready_at(i, c));
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

        dram.commit();
        sram.commit();
        noc.commit();
        transpose.commit();
        if (transposes)
            stats.transposeWords += top.chunks * transpose_words;
        stats.peBusy += pe.busyCycles();
        group_end = std::max(group_end, done_at[top.chunks - 1]);
    };
    auto issue_all = [&](auto hooks) {
        for (u32 i = 0; i < num_ops; ++i)
            issue(i, hooks);
    };
    if (hooks)
        issue_all(std::true_type{});
    else
        issue_all(std::false_type{});
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

    telemetry::TraceRecorder *rec = telem ? telem->trace : nullptr;
    if (rec != nullptr) {
        chip.dram.attachTrace(rec);
        chip.sram.attachTrace(rec);
        chip.noc.attachTrace(rec);
        chip.transpose.attachTrace(rec);
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
    GroupScratch scratch;
    SimTime now = 0.0;
    for (const auto &group : *sched.groups) {
        // Synchronous group switching: the next group starts after the
        // previous completes on all PEs (Section IV-A).
        SimTime group_start = now;
        now = simulateGroup(group, sched.graph, cfg, chip, now, stats, rec,
                            hooks, scratch);
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
            group_hist->sample(std::log2(std::max(1.0, now - group_start)));
        now += kGroupSwitchCycles;
        stats.flops += group.flops;
    }
    stats.cycles = now;
    stats.dramWords = chip.dram.totalWords();
    stats.sramWords = chip.sram.totalWords();
    stats.nocWords = chip.noc.totalWords();
    stats.dramRowHits = chip.dram.rowHits();
    stats.dramRowMisses = chip.dram.rowMisses();
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
    return sched::aggregateWorkload(w, cfg, schedules, opt.clusters);
}

}  // namespace crophe::sim
