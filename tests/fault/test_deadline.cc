#include <gtest/gtest.h>

#include <string>

#include "fault/fault_plan.h"
#include "graph/workloads.h"
#include "hw/config.h"
#include "plan/plan_cache.h"
#include "plan/serialize.h"
#include "sched/scheduler.h"
#include "telemetry/telemetry.h"

namespace crophe::sched {
namespace {

// An already-expired budget: any positive elapsed time (>= one
// steady_clock tick) overshoots a picosecond, so the very first check
// fires and the outcome is deterministic — no wall-clock races.
constexpr double kExpired = 1e-12;

graph::Graph
testGraph()
{
    return graph::buildHMult(graph::paramsArk(), 15);
}

TEST(AnytimeDeadline, ExpiredBudgetReturnsADegradedGreedyCover)
{
    auto cfg = hw::configCrophe64();
    SchedOptions opt;
    opt.deadlineSeconds = kExpired;
    auto sched = scheduleGraph(testGraph(), cfg, opt);
    EXPECT_TRUE(sched.degraded);
    // Still a real, complete schedule: every op covered, costs attached.
    EXPECT_FALSE(sched.groups->empty());
    EXPECT_GT(sched.stats.cycles, 0.0);
}

TEST(AnytimeDeadline, NoDeadlineMeansNoDegradation)
{
    auto cfg = hw::configCrophe64();
    auto sched = scheduleGraph(testGraph(), cfg, SchedOptions{});
    EXPECT_FALSE(sched.degraded);
}

TEST(AnytimeDeadline, GreedyFallbackIsDeterministic)
{
    auto cfg = hw::configCrophe64();
    SchedOptions opt;
    opt.deadlineSeconds = kExpired;
    auto a = scheduleGraph(testGraph(), cfg, opt);
    auto b = scheduleGraph(testGraph(), cfg, opt);
    EXPECT_EQ(plan::scheduleBytes(a), plan::scheduleBytes(b));
}

TEST(AnytimeDeadline, GreedyNeverBeatsTheExactSearch)
{
    auto cfg = hw::configCrophe64();
    SchedOptions exact_opt;
    SchedOptions greedy_opt;
    greedy_opt.deadlineSeconds = kExpired;
    auto exact = scheduleGraph(testGraph(), cfg, exact_opt);
    auto greedy = scheduleGraph(testGraph(), cfg, greedy_opt);
    // The exact DP minimizes cost-model cycles over a window space that
    // includes every greedy cover.
    EXPECT_GE(greedy.stats.cycles, exact.stats.cycles);
}

TEST(AnytimeDeadline, WorkloadResultAndTelemetryReportTheTruncation)
{
    auto p = graph::paramsArk();
    graph::WorkloadOptions wopt;
    wopt.rotMode = graph::RotMode::MinKs;
    auto w = graph::buildBootstrapping(p, wopt);
    auto cfg = hw::configCrophe64();

    telemetry::SearchTelemetry search;
    SchedOptions opt;
    opt.deadlineSeconds = kExpired;
    opt.search = &search;
    auto res = scheduleWorkload(w, cfg, opt);
    EXPECT_TRUE(res.degraded);
    EXPECT_GT(search.deadlineHits(), 0u);

    // The counter only appears in dumps when it fired, so healthy stats
    // dumps stay byte-identical to pre-anytime builds.
    telemetry::StatsRegistry reg;
    search.registerStats(reg);
    EXPECT_TRUE(reg.has("sched.search.deadlineHits"));

    telemetry::SearchTelemetry healthy_search;
    telemetry::StatsRegistry healthy_reg;
    healthy_search.registerStats(healthy_reg);
    EXPECT_FALSE(healthy_reg.has("sched.search.deadlineHits"));
}

TEST(AnytimeDeadline, TruncatedSchedulesNeverEnterThePlanCache)
{
    auto cfg = hw::configCrophe64();
    plan::PlanCache cache;
    SchedOptions opt;
    opt.deadlineSeconds = kExpired;
    opt.planCache = &cache;

    auto first = scheduleGraph(testGraph(), cfg, opt);
    EXPECT_TRUE(first.degraded);
    EXPECT_EQ(cache.stats().insertions, 0u);

    // A rerun must miss again (nothing was cached), not be served a
    // stale greedy schedule.
    auto second = scheduleGraph(testGraph(), cfg, opt);
    EXPECT_TRUE(second.degraded);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().insertions, 0u);

    // Exact searches still populate and hit as before.
    SchedOptions exact_opt;
    exact_opt.planCache = &cache;
    auto exact = scheduleGraph(testGraph(), cfg, exact_opt);
    EXPECT_FALSE(exact.degraded);
    EXPECT_EQ(cache.stats().insertions, 1u);
    auto warm = scheduleGraph(testGraph(), cfg, exact_opt);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(plan::scheduleBytes(exact), plan::scheduleBytes(warm));
}

TEST(AnytimeDeadline, HealthyCacheEntriesNeverServeDegradedHardware)
{
    auto healthy = hw::configCrophe36();
    auto fplan =
        fault::FaultPlan::parse("dead-pe-groups=1,failed-sram-banks=2");
    auto degraded = fplan.degradedConfig(healthy);

    plan::PlanCache cache;
    SchedOptions opt;
    opt.planCache = &cache;
    auto g = graph::buildHMult(graph::paramsSharp(), 15);

    auto on_healthy = scheduleGraph(g, healthy, opt);
    EXPECT_EQ(cache.stats().insertions, 1u);

    // Same graph, same options — but the degraded digest keys a
    // different entry, so this must be a miss plus a fresh insert.
    auto on_degraded = scheduleGraph(g, degraded, opt);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().insertions, 2u);
    // And the degraded schedule is genuinely different work.
    EXPECT_GE(on_degraded.stats.cycles, on_healthy.stats.cycles);

    // Warm hits now resolve per digest.
    auto warm_h = scheduleGraph(g, healthy, opt);
    auto warm_d = scheduleGraph(g, degraded, opt);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(plan::scheduleBytes(warm_h), plan::scheduleBytes(on_healthy));
    EXPECT_EQ(plan::scheduleBytes(warm_d), plan::scheduleBytes(on_degraded));
}

TEST(AnytimeDeadline, DeadlineIsExcludedFromTheOptionsDigest)
{
    // Two options differing only in deadline share a digest: a degraded
    // run may *read* exact cached plans (they are valid and better), it
    // just never writes its own.
    SchedOptions a, b;
    b.deadlineSeconds = 30.0;
    EXPECT_EQ(optionsDigest(a), optionsDigest(b));
}

TEST(OptionsDigest, CoversExactlyWhatTheGraphSearchReads)
{
    // clusters and the two masks act above scheduleGraph (they slice the
    // config and choose which graphs get built), so a restricted search
    // reads the plans an unrestricted one wrote. Every field the search
    // reads must move the digest.
    const u64 base = optionsDigest(SchedOptions{});
    auto digestWith = [](auto set) {
        SchedOptions o;
        set(o);
        return optionsDigest(o);
    };
    EXPECT_EQ(digestWith([](SchedOptions &o) { o.clusters = 4; }), base);
    EXPECT_EQ(digestWith([](SchedOptions &o) { o.rotSchemeMask = 0x4; }),
              base);
    EXPECT_EQ(digestWith([](SchedOptions &o) { o.ksDataflowMask = 0x1; }),
              base);
    EXPECT_NE(digestWith([](SchedOptions &o) { o.crossOpDataflow = false; }),
              base);
    EXPECT_NE(digestWith([](SchedOptions &o) { o.nttDecomp = false; }), base);
    EXPECT_NE(digestWith([](SchedOptions &o) { o.maxGroupOps = 7; }), base);
}

}  // namespace
}  // namespace crophe::sched
