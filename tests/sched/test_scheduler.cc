#include <gtest/gtest.h>

#include "common/error.h"
#include "common/parallel.h"
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
    for (const auto &sg : *s.groups)
        covered += static_cast<u32>(sg.allocs.size());
    // NTT decomposition may rewrite the graph, so coverage is >= original.
    EXPECT_GE(covered, g.size());
    EXPECT_GT(s.stats.cycles, 0.0);
    EXPECT_GT(s.stats.flops, 0u);
}

TEST(Scheduler, AScheduleKeepsItsGraphWhenTheCallerEditsTheirs)
{
    Graph g = graph::buildHMult(graph::paramsArk(), 4);
    SchedOptions opt = cropheOptions();
    opt.nttDecomp = false;  // schedule the input graph itself
    const Schedule s = scheduleGraph(g, hw::configCrophe64(), opt);
    ASSERT_EQ(s.nttN1, 0u);
    EXPECT_EQ(&s.graph.ops(), &g.ops());

    const u32 ops = g.size();
    const std::vector<graph::OpId> consumers = g.consumers(0);
    g.connect(0, g.add(graph::makeOutput(g.op(0).n, g.op(0).limbsOut)));
    EXPECT_NE(&s.graph.ops(), &g.ops());
    EXPECT_EQ(s.graph.size(), ops);
    EXPECT_EQ(s.graph.consumers(0), consumers);
    EXPECT_EQ(g.size(), ops + 1);
}

TEST(Scheduler, CropheBeatsMadOnCropheHardware)
{
    FheParams p = graph::paramsArk();
    Graph g = graph::buildPtMatVecMult(p, 12, 8, 4, RotMode::Hoisting, 0);
    auto cfg = hw::configCrophe64();

    Schedule crophe = scheduleGraph(g, cfg, cropheOptions());
    Schedule mad = scheduleGraph(g, cfg, madOptions());

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

/** SchedStats with the fields aggregateWorkload reads. */
SchedStats
segStats(double cycles, u64 dram, u64 aux, u64 sram, u64 noc)
{
    SchedStats s;
    s.cycles = cycles;
    s.dramWords = dram;
    s.auxDramWords = aux;
    s.sramWords = sram;
    s.nocWords = noc;
    s.flops = 10;
    return s;
}

TEST(Scheduler, AggregationChargesAuxAndWarmCyclesPerClusterRound)
{
    // Round numbers: one DRAM word per cycle, two SRAM words, four NoC.
    hw::HwConfig cfg;
    cfg.wordBits = 64;
    cfg.freqGhz = 1.0;
    cfg.dramGBs = 8.0;
    cfg.sramGBs = 16.0;
    cfg.numPes = 4;
    cfg.lanes = 4;

    // Five repetitions of each segment; each is bound by a different
    // resource. Cold (first) and warm (steady-state) schedules.
    Workload w;
    std::vector<Schedule> scheds(4);
    for (const char *name : {"compute", "dram", "sram", "noc"})
        w.segments.push_back({name, Graph{}, 5});
    scheds[0].stats = segStats(1000, 600, 400, 100, 50);
    scheds[0].warmStats = segStats(700, 300, 100, 0, 0);
    scheds[1].stats = segStats(100, 1000, 600, 0, 0);
    scheds[1].warmStats = segStats(50, 700, 500, 0, 0);
    scheds[2].stats = segStats(100, 0, 0, 2000, 0);
    scheds[2].warmStats = segStats(50, 0, 0, 0, 0);
    scheds[3].stats = segStats(100, 0, 0, 0, 2000);
    scheds[3].warmStats = segStats(50, 0, 0, 0, 0);

    // One cluster runs the five repetitions in five rounds, two clusters
    // in three: the first round cold, the rest warm, and the aux
    // constants fetched once per round.
    struct Want
    {
        u32 clusters;
        u64 aux[2];        ///< compute and dram segments' aux words
        u64 dram[2];       ///< their DRAM words
        double cycles[4];  ///< per segment
    };
    const Want wants[] = {
        // compute: 1000 + 4*700 cold+warm; dram: 3800 words at one per
        // cycle; sram: 5*2000 words at two per cycle; noc: 5*2000 at four.
        {1, {400 + 4 * 100, 600 + 4 * 500}, {1800, 3800},
         {3800, 3800, 5000, 2500}},
        {2, {400 + 2 * 100, 600 + 2 * 500}, {1600, 2800},
         {2400, 2800, 5000, 2500}},
    };
    for (const Want &want : wants) {
        WorkloadResult res = aggregateWorkload(w, cfg, scheds, want.clusters);
        EXPECT_EQ(res.clusters, want.clusters);
        ASSERT_EQ(res.perSegment.size(), 4u);
        for (u32 s = 0; s < 2; ++s) {
            const SchedStats &st = res.perSegment[s].second;
            EXPECT_EQ(st.auxDramWords, want.aux[s]) << s;
            // Non-aux DRAM words: cold once, warm four times either way.
            EXPECT_EQ(st.dramWords, want.dram[s]) << s;
        }
        double total = 0.0;
        for (u32 s = 0; s < 4; ++s) {
            const SchedStats &st = res.perSegment[s].second;
            EXPECT_EQ(res.perSegment[s].first, w.segments[s].name);
            EXPECT_DOUBLE_EQ(st.cycles, want.cycles[s]) << s;
            EXPECT_EQ(st.flops, 50u);
            total += st.cycles;
        }
        EXPECT_EQ(res.perSegment[2].second.sramWords, 10000u);
        EXPECT_EQ(res.perSegment[3].second.nocWords, 10000u);
        EXPECT_DOUBLE_EQ(res.stats.cycles, total);
        EXPECT_DOUBLE_EQ(res.seconds, total / 1e9);
    }
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
    // How much work the exhaustive cover search does, at any thread
    // count: analyzed = unique memo keys, hits = every other window
    // request (each window of each candidate graph is requested once),
    // candidates = each graph search's base and NTT-factor schedules.
    // A change to the memo may only change how this work is computed,
    // never its amount.
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
        EXPECT_EQ(search.analyzed(), 32071u);
        EXPECT_EQ(search.memoHits(), 567828u);
        EXPECT_EQ(search.candidates(), 231u);
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
