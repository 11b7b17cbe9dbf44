#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "common/parallel.h"
#include "graph/params.h"
#include "graph/workloads.h"
#include "hw/config.h"
#include "map/pod_place.h"
#include "plan/plan_cache.h"
#include "pod/pod.h"
#include "sched/scheduler.h"

namespace crophe::pod {
namespace {

graph::Workload
microWorkload(u64 reps = 4)
{
    auto p = graph::paramsArk();
    graph::Workload w;
    w.name = "micro";
    w.params = p;
    graph::WorkloadSegment seg;
    seg.name = "hmult";
    seg.graph = graph::buildHMult(p, 10);
    seg.repetitions = reps;
    w.segments.push_back(std::move(seg));
    return w;
}

PodConfig
podOf(u32 chips, u32 dead = 0)
{
    PodConfig pc;
    pc.chips = chips;
    pc.deadChips = dead;
    return pc;
}

TEST(PodConfig, ValidateRejectsNonsensicalShapes)
{
    EXPECT_THROW(validatePod(podOf(0)), RecoverableError);
    EXPECT_THROW(validatePod(podOf(2, 2)), RecoverableError);
    EXPECT_THROW(validatePod(podOf(1, 3)), RecoverableError);
    PodConfig zeroBw = podOf(2);
    zeroBw.linkGBs = 0.0;
    EXPECT_THROW(validatePod(zeroBw), RecoverableError);
    PodConfig negLat = podOf(2);
    negLat.linkLatencyCycles = -1.0;
    EXPECT_THROW(validatePod(negLat), RecoverableError);
    EXPECT_NO_THROW(validatePod(podOf(1)));
    EXPECT_NO_THROW(validatePod(podOf(8, 3)));
}

TEST(PodConfig, DigestCoversEveryParameter)
{
    const PodConfig base = podOf(2);
    EXPECT_EQ(podDigest(base), podDigest(podOf(2)));
    EXPECT_NE(podDigest(base), podDigest(podOf(4)));
    PodConfig bw = base;
    bw.linkGBs = 300.0;
    EXPECT_NE(podDigest(base), podDigest(bw));
    PodConfig lat = base;
    lat.linkLatencyCycles = 100.0;
    EXPECT_NE(podDigest(base), podDigest(lat));
    EXPECT_NE(podDigest(podOf(4)), podDigest(podOf(4, 1)));
}

TEST(PodConfig, LinkFractionValidatesAndSaltsTheDigest)
{
    // Degraded links (DESIGN.md §14) must stay in (0, 1].
    PodConfig bad = podOf(2);
    bad.linkFraction = 0.0;
    EXPECT_THROW(validatePod(bad), RecoverableError);
    bad.linkFraction = 1.5;
    EXPECT_THROW(validatePod(bad), RecoverableError);
    bad.linkFraction = -0.5;
    EXPECT_THROW(validatePod(bad), RecoverableError);

    // Healthy links (exactly 1.0) leave the digest untouched — the
    // backward-compatibility contract for every pre-recovery plan cache.
    PodConfig healthy = podOf(2);
    healthy.linkFraction = 1.0;
    EXPECT_EQ(podDigest(healthy), podDigest(podOf(2)));
    // A degraded fraction digests differently (no plan cross-serving).
    PodConfig degraded = podOf(2);
    degraded.linkFraction = 0.5;
    EXPECT_NO_THROW(validatePod(degraded));
    EXPECT_NE(podDigest(degraded), podDigest(healthy));
    PodConfig degradedMore = podOf(2);
    degradedMore.linkFraction = 0.25;
    EXPECT_NE(podDigest(degradedMore), podDigest(degraded));
}

TEST(PodConfig, OneChipPodSharesTheSingleChipPlanNamespace)
{
    auto cfg = hw::configCrophe64();
    // A trivial pod is contractually the same machine: same digest.
    EXPECT_EQ(hw::configDigest(chipConfigForPod(podOf(1), cfg)),
              hw::configDigest(cfg));
    // Real pods are salted — including a degraded pod with one survivor,
    // which schedules around dead neighbors and must not share plans
    // with the genuinely single-chip machine.
    EXPECT_NE(hw::configDigest(chipConfigForPod(podOf(2), cfg)),
              hw::configDigest(cfg));
    EXPECT_NE(hw::configDigest(chipConfigForPod(podOf(2, 1), cfg)),
              hw::configDigest(cfg));
    EXPECT_NE(hw::configDigest(chipConfigForPod(podOf(2), cfg)),
              hw::configDigest(chipConfigForPod(podOf(4), cfg)));
}

TEST(Pod, PlanCacheNeverCrossServesPodAndSingleChipPlans)
{
    auto cfg = hw::configCrophe64();
    auto g = graph::buildHMult(graph::paramsArk(), 10);
    plan::PlanCache cache;
    sched::SchedOptions so;
    so.planCache = &cache;

    sched::scheduleGraph(g, cfg, so);
    EXPECT_EQ(cache.stats().misses, 1u);

    // Same graph, 2-chip pod config: a different key, so a miss — the
    // single-chip plan is never served to the pod.
    auto podCfg = chipConfigForPod(podOf(2), cfg);
    sched::scheduleGraph(g, podCfg, so);
    EXPECT_EQ(cache.stats().misses, 2u);

    // Both namespaces replay as hits.
    const u64 hitsBefore = cache.stats().hits;
    sched::scheduleGraph(g, cfg, so);
    sched::scheduleGraph(g, podCfg, so);
    EXPECT_EQ(cache.stats().hits, hitsBefore + 2);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(Pod, ShardsSegmentsAndChargesInterchipTraffic)
{
    auto w = microWorkload();
    sched::SchedOptions so;
    auto pr = schedulePodWorkload(w, hw::configCrophe64(), podOf(2), so);
    ASSERT_EQ(pr.perSegment.size(), 1u);
    const auto &seg = pr.perSegment[0];
    EXPECT_EQ(seg.stages, 2u);
    ASSERT_EQ(seg.stageChip.size(), 2u);
    EXPECT_NE(seg.stageChip[0], seg.stageChip[1]);
    EXPECT_LT(seg.stageChip[0], 2u);
    EXPECT_LT(seg.stageChip[1], 2u);
    EXPECT_GT(pr.seconds, 0.0);
    EXPECT_GT(pr.interchipWords, 0u);
    EXPECT_GT(pr.transfers, 0u);
    // The steady-state bound can never exceed the cold makespan.
    EXPECT_LE(pr.warmSeconds, pr.seconds * (1.0 + 1e-12));
}

TEST(Pod, SingleChipPodHasNoInterchipTraffic)
{
    auto w = microWorkload();
    sched::SchedOptions so;
    auto pr = schedulePodWorkload(w, hw::configCrophe64(), podOf(1), so);
    EXPECT_EQ(pr.interchipWords, 0u);
    EXPECT_EQ(pr.transfers, 0u);
    ASSERT_EQ(pr.perSegment.size(), 1u);
    EXPECT_EQ(pr.perSegment[0].stages, 1u);
    EXPECT_GT(pr.seconds, 0.0);
}

TEST(Pod, DeadChipsRepartitionOntoSurvivors)
{
    auto w = microWorkload();
    sched::SchedOptions so;
    // 4-chip pod with 2 dead: the graph repartitions across the two
    // surviving physical chips (the lowest-numbered ids, by convention).
    auto pr = schedulePodWorkload(w, hw::configCrophe64(), podOf(4, 2),
                                  so);
    ASSERT_EQ(pr.perSegment.size(), 1u);
    EXPECT_EQ(pr.perSegment[0].stages, 2u);
    for (u32 chip : pr.perSegment[0].stageChip)
        EXPECT_LT(chip, 2u);
    EXPECT_GT(pr.seconds, 0.0);
    // The degraded pod digests differently from both the healthy 4-chip
    // pod and a native 2-chip pod, so none of the three share plans.
    EXPECT_NE(podDigest(podOf(4, 2)), podDigest(podOf(4)));
    EXPECT_NE(podDigest(podOf(4, 2)), podDigest(podOf(2)));
}

TEST(Pod, ResultsAreByteIdenticalAcrossThreadCounts)
{
    auto w = microWorkload();
    auto run = [&](u32 threads) {
        ThreadPool::setGlobalThreads(threads);
        sched::SchedOptions so;
        return schedulePodWorkload(w, hw::configCrophe64(), podOf(2), so);
    };
    auto r1 = run(1);
    auto r8 = run(8);
    ThreadPool::setGlobalThreads(0);  // back to the hardware default
    EXPECT_EQ(r1.seconds, r8.seconds);
    EXPECT_EQ(r1.warmSeconds, r8.warmSeconds);
    EXPECT_EQ(r1.interchipWords, r8.interchipWords);
    EXPECT_EQ(r1.transfers, r8.transfers);
    ASSERT_EQ(r1.perSegment.size(), r8.perSegment.size());
    EXPECT_EQ(r1.perSegment[0].stageChip, r8.perSegment[0].stageChip);
    EXPECT_EQ(r1.perSegment[0].cycles, r8.perSegment[0].cycles);
}

TEST(Pod, SegmentsWithFewerOpsThanChipsRunOnTheFirstChips)
{
    // A segment is cut into min(alive chips, ops) stages. A 3-op segment
    // on an 8-chip pod used to abort in stage placement, which demanded
    // one stage per alive chip.
    graph::Workload w;
    w.name = "tiny";
    w.params = graph::paramsArk();
    graph::WorkloadSegment seg;
    seg.name = "scale";
    graph::OpId in = seg.graph.add(graph::makeInput(1 << 16, 24));
    graph::OpId mul = seg.graph.add(
        graph::makeEwBinary(graph::OpKind::EwMul, 1 << 16, 24));
    graph::OpId out = seg.graph.add(graph::makeOutput(1 << 16, 24));
    seg.graph.connect(in, mul);
    seg.graph.connect(mul, out);
    seg.repetitions = 3;
    w.segments.push_back(std::move(seg));

    sched::SchedOptions so;
    auto pr = schedulePodWorkload(w, hw::configCrophe64(), podOf(8), so);
    ASSERT_EQ(pr.perSegment.size(), 1u);
    const auto &sr = pr.perSegment[0];
    EXPECT_EQ(sr.stages, 3u);
    std::vector<u32> chips = sr.stageChip;
    std::sort(chips.begin(), chips.end());
    EXPECT_EQ(chips, (std::vector<u32>{0, 1, 2}));
    EXPECT_GT(pr.seconds, 0.0);
}

TEST(PodPlace, FewerStagesThanAliveChipsTakeTheFirstChips)
{
    // Stage 0 talks to stage 2 only: the descent may permute the stages,
    // but only over the first three alive chips.
    std::vector<map::StageEdge> edges = {{0, 2, 100}, {1, 2, 1}};
    auto chips = map::placeStagesOnRing(3, {0, 1, 2, 3, 4, 5}, 8, edges);
    ASSERT_EQ(chips.size(), 3u);
    std::sort(chips.begin(), chips.end());
    EXPECT_EQ(chips, (std::vector<u32>{0, 1, 2}));
    // One stage per alive chip keeps the identity start.
    EXPECT_EQ(map::placeStagesOnRing(2, {0, 1}, 4, {}),
              (std::vector<u32>{0, 1}));
}

TEST(PodPlaceDeath, MoreStagesThanAliveChipsPanics)
{
    EXPECT_DEATH(map::placeStagesOnRing(3, {0, 1}, 4, {}),
                 "at most one stage per alive chip");
}

}  // namespace
}  // namespace crophe::pod
