#include <gtest/gtest.h>

#include "common/error.h"
#include "common/parallel.h"
#include "plan/serialize.h"
#include "graph/keyswitch_builder.h"
#include "graph/workloads.h"
#include "sched/enumerator.h"
#include "sched/hybrid_rotation.h"
#include "sched/mad.h"
#include "sched/scheduler.h"
#include "telemetry/search_telemetry.h"
#include "telemetry/stats_registry.h"

namespace crophe::sched {
namespace {

using graph::FheParams;
using graph::Graph;
using graph::RotMode;
using graph::Workload;
using graph::WorkloadOptions;

SchedOptions
cropheOptions()
{
    SchedOptions opt;
    opt.crossOpDataflow = true;
    opt.nttDecomp = true;
    opt.maxGroupOps = 8;
    return opt;
}

TEST(Enumerator, MemoizationMergesRedundantSubgraphs)
{
    // A Min-KS BSGS graph repeats identical key-switch subgraphs (same
    // evk); the enumerator must analyze far fewer unique windows than it
    // is asked about.
    FheParams p = graph::paramsArk();
    Graph g = graph::buildPtMatVecMult(p, 10, 8, 1, RotMode::MinKs, 0);
    GroupMemo memo;
    GroupEnumerator e(g, hw::configCrophe64(), false, 6, memo);

    u64 windows = 0;
    for (u32 begin = 0; begin < g.size(); ++begin)
        for (u32 len = 1; len <= 6; ++len)
            if (e.window(begin, len))
                ++windows;
    EXPECT_GT(windows, 0u);
    EXPECT_LT(e.analyzedCount(), windows / 2)
        << "structural memoization should kick in heavily";
    EXPECT_GT(e.memoHits(), 0u);
}

TEST(Scheduler, CoversEveryOpExactlyOnce)
{
    FheParams p = graph::paramsArk();
    Graph g = graph::buildHMult(p, 15);
    Schedule s = scheduleGraph(g, hw::configCrophe64(), cropheOptions());

    u32 covered = 0;
    for (const auto &tg : s.sequence)
        for (const auto &sg : tg.groups)
            covered += static_cast<u32>(sg.allocs.size());
    // NTT decomposition may rewrite the graph, so coverage is >= original.
    EXPECT_GE(covered, g.size());
    EXPECT_GT(s.stats.cycles, 0.0);
    EXPECT_GT(s.stats.flops, 0u);
}

TEST(Scheduler, CropheBeatsMadOnCropheHardware)
{
    FheParams p = graph::paramsArk();
    Graph g = graph::buildPtMatVecMult(p, 12, 8, 4, RotMode::Hoisting, 0);
    auto cfg = hw::configCrophe64();

    Schedule crophe = scheduleGraph(g, cfg, cropheOptions());
    Schedule mad = scheduleGraphMad(g, cfg);

    EXPECT_LT(crophe.stats.cycles, mad.stats.cycles);
    EXPECT_LE(crophe.stats.dramWords, mad.stats.dramWords);
}

TEST(Scheduler, NttDecompositionHelps)
{
    FheParams p = graph::paramsArk();
    Graph g = graph::buildHMult(p, p.L);
    auto cfg = hw::withSramMB(hw::configCrophe64(), 64.0);

    SchedOptions with = cropheOptions();
    SchedOptions without = cropheOptions();
    without.nttDecomp = false;

    Schedule dec = scheduleGraph(g, cfg, with);
    Schedule mono = scheduleGraph(g, cfg, without);
    // Decomposition can only be selected when it is at least as fast; it
    // trades global-buffer materialization for transpose-unit streaming,
    // so SRAM *capacity pressure* (buffers) drops even where SRAM traffic
    // may rise.
    EXPECT_LE(dec.stats.cycles, mono.stats.cycles);
}

TEST(Scheduler, AuxResidencyMakesWarmRepetitionsCheap)
{
    // Repeated HRots with the same evk: with ample SRAM the key stays
    // resident, so warm repetitions fetch no aux at all; with tiny SRAM
    // the key cannot be cached and every repetition refetches it.
    FheParams p = graph::paramsArk();
    Graph g;
    graph::OpId in = g.add(graph::makeInput(p.n(), 2 * (10 + 1), "ct"));
    graph::OpId cur = in;
    for (int i = 0; i < 3; ++i) {
        auto ks = graph::buildKeySwitch(g, p, 10, cur, "evk:rot:unit");
        cur = ks.outB;
    }

    auto big = hw::configCrophe64();  // 512 MB
    Schedule s_big = scheduleGraph(g, big, cropheOptions());
    EXPECT_GT(s_big.stats.auxDramWords, 0u);
    EXPECT_EQ(s_big.warmStats.auxDramWords, 0u);
    EXPECT_LE(s_big.warmStats.cycles, s_big.stats.cycles);

    auto tiny = hw::withSramMB(big, 2.0);
    Schedule s_tiny = scheduleGraph(g, tiny, cropheOptions());
    EXPECT_EQ(s_tiny.warmStats.auxDramWords, s_tiny.stats.auxDramWords);
    EXPECT_GT(s_tiny.warmStats.auxDramWords, 0u);
}

TEST(Scheduler, WorkloadAggregationScalesWithReps)
{
    FheParams p = graph::paramsArk();
    WorkloadOptions wopt;
    wopt.rotMode = RotMode::MinKs;
    Workload w = graph::buildBootstrapping(p, wopt);

    auto cfg = hw::configCrophe64();
    auto res = scheduleWorkload(w, cfg, cropheOptions());
    EXPECT_GT(res.stats.cycles, 0.0);
    EXPECT_EQ(res.perSegment.size(), w.segments.size());
    EXPECT_GT(res.seconds, 0.0);

    // Doubling every repetition roughly doubles the time.
    Workload w2 = w;
    for (auto &seg : w2.segments)
        seg.repetitions *= 2;
    auto res2 = scheduleWorkload(w2, cfg, cropheOptions());
    EXPECT_NEAR(res2.stats.cycles / res.stats.cycles, 2.0, 0.2);
}

TEST(Scheduler, AutoClustersNeverHurts)
{
    FheParams p = graph::paramsArk();
    WorkloadOptions wopt;
    wopt.rotMode = RotMode::Hybrid;
    wopt.rHyb = 4;
    Workload w = graph::buildBootstrapping(p, wopt);
    auto cfg = hw::configCrophe64();

    SchedOptions opt = cropheOptions();
    auto plain = scheduleWorkload(w, cfg, opt);
    auto autop = scheduleWorkloadAutoClusters(w, cfg, opt);
    EXPECT_LE(autop.stats.cycles, plain.stats.cycles * 1.0001);
}

TEST(HybridRotation, ChoiceIsAtLeastAsGoodAsPureSchemes)
{
    FheParams p = graph::paramsArk();
    auto cfg = hw::withSramMB(hw::configCrophe64(), 64.0);
    SchedOptions opt = cropheOptions();

    auto pure = chooseRotationScheme("bootstrap", p, cfg, opt, false);
    auto hybrid = chooseRotationScheme("bootstrap", p, cfg, opt, true);
    EXPECT_LE(hybrid.result.stats.cycles, pure.result.stats.cycles * 1.0001);
}

TEST(HybridRotation, CandidatesArePowersOfTwo)
{
    auto c = rHybCandidates(16);
    EXPECT_EQ(c, (std::vector<u32>{2, 4, 8, 16}));
}

TEST(HybridRotation, ParseRotSchemesAcceptsNamesAndAll)
{
    using graph::RotMode;
    EXPECT_EQ(parseRotSchemes("minks"),
              1u << static_cast<u32>(RotMode::MinKs));
    EXPECT_EQ(parseRotSchemes("triple"),
              1u << static_cast<u32>(RotMode::TripleHoisted));
    EXPECT_EQ(parseRotSchemes("hoisting,hybrid"),
              (1u << static_cast<u32>(RotMode::Hoisting)) |
                  (1u << static_cast<u32>(RotMode::Hybrid)));
    EXPECT_EQ(parseRotSchemes("all"), 0xFu);
    EXPECT_EQ(parseRotSchemes("minks,all"), 0xFu);
    EXPECT_THROW(parseRotSchemes("warp"), RecoverableError);
    EXPECT_THROW(parseRotSchemes(""), RecoverableError);
    EXPECT_THROW(parseRotSchemes(",,"), RecoverableError);
}

TEST(HybridRotation, ParseKsDataflowsAcceptsNamesAndAll)
{
    using graph::KsDataflow;
    EXPECT_EQ(parseKsDataflows("fused"),
              1u << static_cast<u32>(KsDataflow::Fused));
    EXPECT_EQ(parseKsDataflows("ostat,reordup"),
              (1u << static_cast<u32>(KsDataflow::OutputStationary)) |
                  (1u << static_cast<u32>(KsDataflow::ReorderedModUp)));
    EXPECT_EQ(parseKsDataflows("all"), 0x7u);
    EXPECT_THROW(parseKsDataflows("fused,banana"), RecoverableError);
    EXPECT_THROW(parseKsDataflows(""), RecoverableError);
}

TEST(HybridRotation, MasksRestrictTheSearch)
{
    FheParams p = graph::paramsArk();
    auto cfg = hw::withSramMB(hw::configCrophe64(), 64.0);

    SchedOptions opt = cropheOptions();
    opt.rotSchemeMask = parseRotSchemes("minks");
    opt.ksDataflowMask = parseKsDataflows("reordup");
    auto choice = chooseRotationScheme("helr", p, cfg, opt, true);
    EXPECT_EQ(choice.mode, RotMode::MinKs);
    EXPECT_EQ(choice.ksDataflow, graph::KsDataflow::ReorderedModUp);

    opt.rotSchemeMask = 0;
    EXPECT_THROW(chooseRotationScheme("helr", p, cfg, opt, true),
                 RecoverableError);
    opt.rotSchemeMask = 0xF;
    opt.ksDataflowMask = 0;
    EXPECT_THROW(chooseRotationScheme("helr", p, cfg, opt, true),
                 RecoverableError);
}

TEST(HybridRotation, EnlargedSearchNeverLosesToLegacySpace)
{
    // The cross product strictly contains the legacy (rotation × Fused)
    // space, so the winner can only improve.
    FheParams p = graph::paramsArk();
    auto cfg = hw::withSramMB(hw::configCrophe64(), 64.0);
    SchedOptions legacy = cropheOptions();
    legacy.ksDataflowMask = parseKsDataflows("fused");
    SchedOptions full = cropheOptions();
    auto old_best = chooseRotationScheme("helr", p, cfg, legacy, true);
    auto new_best = chooseRotationScheme("helr", p, cfg, full, true);
    EXPECT_LE(new_best.result.stats.cycles, old_best.result.stats.cycles);
}

TEST(HybridRotation, PrunedEnlargedSearchMatchesMemoFreeGroundTruth)
{
    // Branch-and-bound pruning and the shared group memo must only
    // skip work, never change the winner — byte for byte, over the
    // full rotation-scheme × ks-dataflow cross product.
    FheParams p = graph::paramsArk();
    auto cfg = hw::withSramMB(hw::configCrophe64(), 64.0);

    SchedOptions exact = cropheOptions();
    exact.pruneSearch = false;
    SchedOptions pruned = cropheOptions();
    pruned.pruneSearch = true;

    auto truth = chooseRotationScheme("helr", p, cfg, exact, true);
    auto fast = chooseRotationScheme("helr", p, cfg, pruned, true);
    EXPECT_EQ(truth.mode, fast.mode);
    EXPECT_EQ(truth.rHyb, fast.rHyb);
    EXPECT_EQ(truth.ksDataflow, fast.ksDataflow);
    EXPECT_EQ(plan::workloadResultBytes(truth.result),
              plan::workloadResultBytes(fast.result));
}

TEST(HybridRotation, EnlargedSearchIsThreadCountInvariant)
{
    FheParams p = graph::paramsArk();
    auto cfg = hw::withSramMB(hw::configCrophe64(), 64.0);
    SchedOptions opt = cropheOptions();

    u32 before = ThreadPool::globalThreads();
    ThreadPool::setGlobalThreads(1);
    auto serial = chooseRotationScheme("helr", p, cfg, opt, true);
    ThreadPool::setGlobalThreads(8);
    auto wide = chooseRotationScheme("helr", p, cfg, opt, true);
    ThreadPool::setGlobalThreads(before);

    EXPECT_EQ(serial.mode, wide.mode);
    EXPECT_EQ(serial.rHyb, wide.rHyb);
    EXPECT_EQ(serial.ksDataflow, wide.ksDataflow);
    EXPECT_EQ(serial.result.stats.cycles, wide.result.stats.cycles);
}

TEST(HybridRotation, SearchCountersArePinned)
{
    // The memo and pruning may only change how the search is computed,
    // never how much of it there is: these counts were recorded before
    // the memo stored each analysis once, and must hold at any thread
    // count (analyzed = unique memo keys, hits = the other window
    // requests).
    FheParams p = graph::paramsArk();
    auto cfg = hw::withSramMB(hw::configCrophe64(), 64.0);
    u32 before = ThreadPool::globalThreads();
    for (u32 threads : {1u, 8u}) {
        SCOPED_TRACE(threads);
        ThreadPool::setGlobalThreads(threads);
        telemetry::SearchTelemetry search;
        SchedOptions opt = cropheOptions();
        opt.search = &search;
        chooseRotationScheme("helr", p, cfg, opt, true);
        EXPECT_EQ(search.analyzed(), 31977u);
        EXPECT_EQ(search.memoHits(), 566926u);
        EXPECT_EQ(search.prunedWindows(), 915u);
        EXPECT_EQ(search.candidates(), 252u);
    }
    ThreadPool::setGlobalThreads(before);
}

TEST(HybridRotation, ChoiceIsRecordedInSearchTelemetry)
{
    FheParams p = graph::paramsArk();
    auto cfg = hw::withSramMB(hw::configCrophe64(), 64.0);
    telemetry::SearchTelemetry search;
    SchedOptions opt = cropheOptions();
    opt.search = &search;
    auto choice = chooseRotationScheme("helr", p, cfg, opt, false);

    auto chosen = search.choices();
    ASSERT_EQ(chosen.size(), 1u);
    EXPECT_EQ(chosen[0].workload, "helr");
    EXPECT_EQ(chosen[0].rotIndex, static_cast<u32>(choice.mode));
    EXPECT_EQ(chosen[0].ksIndex, static_cast<u32>(choice.ksDataflow));

    telemetry::StatsRegistry reg;
    search.registerStats(reg, "sched");
    EXPECT_TRUE(reg.has("sched.rot.mode"));
    EXPECT_TRUE(reg.has("sched.ks.dataflow"));

    // Without a recorded choice the keys stay absent (MAD-only dumps
    // must not change shape).
    telemetry::SearchTelemetry empty;
    telemetry::StatsRegistry reg2;
    empty.registerStats(reg2, "sched");
    EXPECT_FALSE(reg2.has("sched.rot.mode"));
    EXPECT_FALSE(reg2.has("sched.ks.dataflow"));
}

}  // namespace
}  // namespace crophe::sched
