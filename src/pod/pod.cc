#include "pod/pod.h"

#include <algorithm>
#include <map>

#include "common/error.h"
#include "common/hash.h"
#include "common/logging.h"
#include "map/pod_place.h"
#include "pod/partition.h"
#include "sched/scheduler.h"
#include "telemetry/stats_registry.h"
#include "telemetry/trace_recorder.h"

namespace crophe::pod {

void
validatePod(const PodConfig &pod)
{
    auto reject = [](const std::string &why) {
        throw RecoverableError("invalid pod configuration: " + why);
    };
    if (pod.chips == 0)
        reject("chips must be at least 1");
    if (pod.deadChips >= pod.chips)
        reject("dead chips (" + std::to_string(pod.deadChips) +
               ") must leave at least one of " +
               std::to_string(pod.chips) + " chips alive");
    if (pod.chips > 1 && !(pod.linkGBs > 0.0))
        reject("link bandwidth must be positive");
    if (!(pod.linkLatencyCycles >= 0.0))
        reject("link latency cannot be negative");
    if (!(pod.linkFraction > 0.0 && pod.linkFraction <= 1.0))
        reject("link fraction must be in (0, 1]");
}

u64
podDigest(const PodConfig &pod)
{
    u64 h = kHashSeed;
    hashMix(h, pod.chips);
    hashMix(h, pod.linkGBs);
    hashMix(h, pod.linkLatencyCycles);
    hashMix(h, pod.deadChips);
    // Mixed only when degraded: healthy pods keep their historical
    // digests so existing plan-cache entries stay valid.
    if (pod.linkFraction != 1.0)
        hashMix(h, pod.linkFraction);
    return h;
}

hw::HwConfig
chipConfigForPod(const PodConfig &pod, const hw::HwConfig &chip)
{
    hw::HwConfig cfg = chip;
    if (pod.chips > 1 || pod.deadChips > 0)
        cfg.digestSalt = podDigest(pod);
    return cfg;
}

namespace {

/** Physical ids of the surviving chips (the highest-numbered die). */
std::vector<u32>
aliveChipIds(const PodConfig &pod)
{
    std::vector<u32> alive;
    for (u32 c = 0; c < pod.chips - pod.deadChips; ++c)
        alive.push_back(c);
    return alive;
}

}  // namespace

PodResult
schedulePodWorkload(const graph::Workload &w, const hw::HwConfig &chip,
                    const PodConfig &pod, const sched::SchedOptions &opt,
                    telemetry::StatsRegistry *reg,
                    telemetry::TraceRecorder *trace)
{
    validatePod(pod);
    hw::validateConfig(chip);
    const hw::HwConfig stageCfg = chipConfigForPod(pod, chip);
    const double hz = chip.freqGhz * 1e9;
    const u32 alive = pod.aliveChips();

    PodResult res;
    res.workload = w.name;
    res.pod = pod;

    for (const auto &seg : w.segments) {
        const u32 stages =
            std::min(alive, std::max<u32>(1, seg.graph.size()));
        auto part = partitionGraph(seg.graph, stages, chip);

        // Per-stage schedules on the pod-salted chip config. Stage
        // subgraphs materialize the crossing ciphertexts as boundary
        // Input/Output ops, so each chip's schedule charges them as
        // off-chip traffic on its own DRAM.
        std::vector<sched::Schedule> scheds;
        scheds.reserve(stages);
        PodSegmentResult sr;
        sr.name = seg.name;
        sr.repetitions = seg.repetitions;
        sr.stages = stages;
        sr.cutHopWords = part.cutHopWords;
        sr.partitionMoves = part.moves;
        sr.sramOverflow = part.sramOverflow;
        for (u32 s = 0; s < stages; ++s) {
            auto sub = seg.graph.inducedSubgraph(part.parts[s]);
            scheds.push_back(sched::scheduleGraph(sub, stageCfg, opt));
            if (scheds.back().degraded)
                sr.degraded = true;
        }

        // Aggregate cross-stage traffic (per repetition).
        std::map<std::pair<u32, u32>, u64> stageTraffic;
        for (graph::OpId u = 0; u < seg.graph.size(); ++u) {
            for (graph::OpId v : seg.graph.consumers(u)) {
                const u32 a = part.partOf[u], b = part.partOf[v];
                if (a != b)
                    stageTraffic[{a, b}] += seg.graph.op(u).outputWords;
            }
        }
        std::vector<map::StageEdge> edges;
        for (const auto &[key, words] : stageTraffic)
            edges.push_back({key.first, key.second, words});

        sr.stageChip = map::placeStagesOnRing(stages, aliveChipIds(pod),
                                              pod.chips, edges);

        sim::InterconnectConfig ic;
        ic.chips = pod.chips;
        ic.linkGBs = pod.linkGBs;
        ic.linkLatencyCycles = pod.linkLatencyCycles;
        ic.linkFraction = pod.linkFraction;
        sim::Interconnect net(ic, chip);
        std::vector<u32> chipTracks;
        if (trace != nullptr) {
            trace->beginProcess("pod:" + seg.name);
            net.attachTrace(trace);
            for (u32 s = 0; s < stages; ++s)
                chipTracks.push_back(trace->track(
                    "chip c" + std::to_string(sr.stageChip[s])));
        }

        // Pipeline the repetitions: repetition r enters stage s once its
        // chip is free and every cross-chip input for r has arrived.
        // Repetition 0 runs each stage cold; later repetitions keep the
        // stage's aux resident (warm cycles).
        std::vector<double> chipFree(pod.chips, 0.0);
        double segEnd = 0.0;
        for (u64 r = 0; r < seg.repetitions; ++r) {
            // Repetitions are independent instances of the segment graph:
            // transfers of repetition r gate only r's own later stages.
            std::vector<double> arrival(stages, 0.0);
            for (u32 s = 0; s < stages; ++s) {
                const u32 c = sr.stageChip[s];
                const double start = std::max(chipFree[c], arrival[s]);
                const double cycles = r == 0
                                          ? scheds[s].stats.cycles
                                          : scheds[s].warmStats.cycles;
                const double finish = start + cycles;
                chipFree[c] = finish;
                segEnd = std::max(segEnd, finish);
                // append, not "s" + ...: GCC 12 reports a false
                // -Wrestrict there.
                if (trace != nullptr)
                    trace->complete(chipTracks[s],
                                    std::string("s")
                                        .append(std::to_string(s))
                                        .append(" r")
                                        .append(std::to_string(r)),
                                    start, cycles);
                for (const auto &e : edges) {
                    if (e.from != s)
                        continue;
                    const double arr = net.transfer(
                        finish, sr.stageChip[e.from],
                        sr.stageChip[e.to], e.words);
                    arrival[e.to] = std::max(arrival[e.to], arr);
                    segEnd = std::max(segEnd, arr);
                }
            }
        }
        sr.cycles = segEnd;

        // Steady-state throughput bound: the slowest warm stage or, if a
        // link saturates first, the busiest link's per-repetition
        // occupancy.
        double bottleneck = 0.0;
        for (u32 s = 0; s < stages; ++s)
            bottleneck = std::max(bottleneck, scheds[s].warmStats.cycles);
        if (stages > 1 && seg.repetitions > 0) {
            const double perRepLink =
                net.maxLinkBusyCycles() /
                static_cast<double>(seg.repetitions);
            bottleneck = std::max(bottleneck, perRepLink);
        }
        sr.warmCyclesPerRep = bottleneck;
        sr.interchipWords = net.totalWords();

        res.seconds += sr.cycles / hz;
        res.warmSeconds +=
            static_cast<double>(seg.repetitions) * bottleneck / hz;
        res.interchipWords += net.totalWords();
        res.transfers += net.transfers();
        res.linkBusyCycles += net.busyCycles();
        res.maxLinkBusyCycles =
            std::max(res.maxLinkBusyCycles, net.maxLinkBusyCycles());
        res.degraded = res.degraded || sr.degraded;
        if (reg != nullptr)
            net.accumulateInto(*reg);
        res.perSegment.push_back(std::move(sr));
    }
    return res;
}

}  // namespace crophe::pod
