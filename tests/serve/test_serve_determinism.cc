/**
 * @file
 * The serving determinism contract (DESIGN.md §11): a fixed seed gives
 * byte-identical stats and trace at any thread count; a warm plan cache
 * changes nothing but the plan.cache/serve.plan counters when planning
 * is free, and strictly improves tail latency when planning costs
 * virtual time.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "graph/params.h"
#include "hw/config.h"
#include "plan/plan_cache.h"
#include "serve/dispatcher.h"
#include "serve/report.h"
#include "telemetry/stats_registry.h"
#include "telemetry/trace_recorder.h"

namespace crophe::serve {
namespace {

Catalog
microCatalog()
{
    return buildCatalog(graph::paramsArk(), {"hmult", "hrot", "matvec"});
}

std::vector<TenantSpec>
twoTenants()
{
    std::vector<TenantSpec> tenants;
    for (u32 i = 0; i < 2; ++i) {
        TenantSpec t;
        // append, not "t" + ...: GCC 12 reports a false -Wrestrict there.
        t.name = std::string("t").append(std::to_string(i));
        t.rate = i == 0 ? 1200.0 : 800.0;
        t.slaSeconds = 100e-6;  // tight: some met, some missed
        t.weight = i == 0 ? 2.0 : 1.0;
        t.bucketRate = i == 0 ? 600.0 : 0.0;  // tenant 0 gets throttled
        t.bucketBurst = 4.0;
        t.mix = {0.5, 0.3, 0.2};
        tenants.push_back(std::move(t));
    }
    return tenants;
}

std::vector<Request>
traffic(const Catalog &cat, const std::vector<TenantSpec> &tenants,
        double duration = 0.05, u64 seed = 77)
{
    TrafficSpec ts;
    ts.durationSeconds = duration;
    ts.seed = seed;
    ts.tenants = tenants;
    return generateTraffic(ts, cat);
}

/** Full serve run -> "<stats json>|<trace json>" byte string. */
std::string
runFingerprint(plan::PlanCache *cache, double planSecondsPerOp)
{
    auto cat = microCatalog();
    auto tenants = twoTenants();
    auto arrivals = traffic(cat, tenants);

    telemetry::TraceRecorder trace;
    ServeOptions opt;
    opt.policy = Policy::Wfq;
    opt.maxBatch = 4;
    opt.admission.shedFactor = 4.0;
    opt.planSecondsPerOp = planSecondsPerOp;
    opt.planCache = cache;
    opt.trace = &trace;
    Dispatcher d(hw::configCrophe64(), cat, tenants, opt);
    auto rep = buildReport(d.run(arrivals, 0.05), tenants);

    telemetry::StatsRegistry reg;
    registerReport(rep, reg);
    if (cache != nullptr)
        cache->registerStats(reg);
    std::ostringstream os;
    reg.dumpJson(os);
    os << "|";
    trace.writeJson(os);
    return os.str();
}

/** Registry text dump with every plan-related line removed. */
std::string
statsTextWithoutPlanLines(const ServeReport &rep, plan::PlanCache &cache)
{
    telemetry::StatsRegistry reg;
    registerReport(rep, reg);
    cache.registerStats(reg);
    std::ostringstream os;
    reg.dumpText(os);
    std::istringstream in(os.str());
    std::string line, kept;
    while (std::getline(in, line))
        if (line.find("plan") == std::string::npos)
            kept += line + "\n";
    return kept;
}

TEST(ServeDeterminism, ByteIdenticalStatsAndTraceAcrossThreadCounts)
{
    // Each run uses a fresh memory-only cache (cold), so the plan.cache
    // counters are part of the fingerprint too.
    ThreadPool::setGlobalThreads(1);
    plan::PlanCache c1;
    const std::string one = runFingerprint(&c1, 1e-5);
    ThreadPool::setGlobalThreads(2);
    plan::PlanCache c2;
    const std::string two = runFingerprint(&c2, 1e-5);
    ThreadPool::setGlobalThreads(8);
    plan::PlanCache c8;
    const std::string eight = runFingerprint(&c8, 1e-5);
    ThreadPool::setGlobalThreads(0);  // back to the hardware default

    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, two);
    EXPECT_EQ(two, eight);
}

TEST(ServeDeterminism, WarmCacheEqualsColdCacheModuloPlanCounters)
{
    auto cat = microCatalog();
    auto tenants = twoTenants();
    auto arrivals = traffic(cat, tenants);

    plan::PlanCache cache;  // shared: run 1 fills it, run 2 hits it
    auto runOnce = [&]() {
        ServeOptions opt;
        opt.policy = Policy::Edf;
        opt.maxBatch = 4;
        opt.planSecondsPerOp = 0.0;  // free planning: timing-neutral
        opt.planCache = &cache;
        Dispatcher d(hw::configCrophe64(), cat, tenants, opt);
        return buildReport(d.run(arrivals, 0.05), tenants);
    };
    auto cold = runOnce();
    auto warm = runOnce();

    EXPECT_EQ(cold.planCacheHits, 0u);
    EXPECT_EQ(warm.planCompiles, 3u);
    EXPECT_EQ(warm.planCacheHits, 3u);  // 100% >= the 90% bar
    EXPECT_EQ(statsTextWithoutPlanLines(cold, cache),
              statsTextWithoutPlanLines(warm, cache));
}

TEST(ServeDeterminism, WarmCacheStrictlyImprovesTailLatency)
{
    auto cat = microCatalog();
    auto tenants = twoTenants();
    auto arrivals = traffic(cat, tenants);

    plan::PlanCache cache;
    auto runOnce = [&]() {
        ServeOptions opt;
        opt.policy = Policy::Edf;
        opt.maxBatch = 4;
        // Cache misses pay a virtual planning latency that dwarfs the
        // micro-template service times; hits pay nothing.
        opt.planSecondsPerOp = 1e-4;
        opt.planCache = &cache;
        Dispatcher d(hw::configCrophe64(), cat, tenants, opt);
        return buildReport(d.run(arrivals, 0.05), tenants);
    };
    auto cold = runOnce();
    auto warm = runOnce();

    EXPECT_EQ(warm.planCacheHits, warm.planCompiles);
    EXPECT_LT(warm.total.p99Ms, cold.total.p99Ms);
    EXPECT_LT(warm.total.p50Ms, cold.total.p50Ms);
    EXPECT_LE(warm.horizonSeconds, cold.horizonSeconds);
}

u64
fnv1a(const std::string &s)
{
    u64 h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** One healthy run (no plan cache) with hashes of its stats and trace. */
struct PinnedRun
{
    ServeReport report;
    u64 statsHash = 0;
    u64 traceHash = 0;
};

PinnedRun
pinnedRun(ServeOptions opt)
{
    auto cat = microCatalog();
    auto tenants = twoTenants();
    // Enough load to build a queue, and SLAs that differ per tenant, so
    // fifo, edf and wfq each serve it in a different order.
    for (TenantSpec &t : tenants)
        t.rate *= 10.0;
    tenants[1].slaSeconds = 300e-6;
    auto arrivals = traffic(cat, tenants);

    telemetry::TraceRecorder trace;
    opt.maxBatch = 4;
    opt.planSecondsPerOp = 1e-5;
    opt.trace = &trace;
    Dispatcher d(hw::configCrophe64(), cat, tenants, opt);
    PinnedRun run;
    run.report = buildReport(d.run(arrivals, 0.05), tenants);

    telemetry::StatsRegistry reg;
    registerReport(run.report, reg);
    std::ostringstream stats, tr;
    reg.dumpJson(stats);
    trace.writeJson(tr);
    run.statsHash = fnv1a(stats.str());
    run.traceHash = fnv1a(tr.str());
    return run;
}

TEST(ServeDeterminism, HealthyRunsMatchPinnedStatsAndTraceHashes)
{
    // Pins every byte of the stats and trace JSON of healthy runs, so a
    // change to the dispatcher's event order, pricing or reporting shows
    // up here even when the counts it asserts elsewhere do not move.
    struct Case
    {
        const char *name;
        Policy policy;
        u32 chips;
        double shedFactor;
        u64 stats;
        u64 trace;
    };
    const Case cases[] = {
        {"edf", Policy::Edf, 1, 4.0,
         0x349217a151711d67ull, 0x68e86efae7352d5full},
        {"fifo", Policy::Fifo, 1, 4.0,
         0xd5cec5c27a19c8a0ull, 0x34c666b9bb8e9a27ull},
        {"wfq", Policy::Wfq, 1, 4.0,
         0x93e4e822c739c8b4ull, 0x5a2c6b95978056dbull},
        {"edf-2-chips", Policy::Edf, 2, 4.0,
         0xd752d9790ba55edaull, 0x8bf774f883c87625ull},
        {"edf-shed", Policy::Edf, 1, 1.0,
         0x263b76d8f5252037ull, 0x4e2ba9a72d138dd3ull},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        ServeOptions opt;
        opt.policy = c.policy;
        opt.pod.chips = c.chips;
        opt.admission.shedFactor = c.shedFactor;
        const PinnedRun run = pinnedRun(opt);
        EXPECT_EQ(run.statsHash, c.stats) << std::hex << run.statsHash;
        EXPECT_EQ(run.traceHash, c.trace) << std::hex << run.traceHash;
        // Tenant 0's bucket throttles in every case; the last one sheds.
        EXPECT_GT(run.report.total.rejectedThrottled, 0u);
        if (c.shedFactor == 1.0) {
            EXPECT_GT(run.report.total.rejectedOverload, 0u);
        }
    }
}

TEST(ServeDeterminism, PoliciesShareArrivalsButReorderService)
{
    // One loaded trace under fifo, edf and wfq: every policy is offered
    // the same requests, and each serves them in its own order, so no
    // two runs print the same stats.
    const Policy policies[] = {Policy::Fifo, Policy::Edf, Policy::Wfq};
    std::vector<PinnedRun> runs;
    for (Policy policy : policies) {
        ServeOptions opt;
        opt.policy = policy;
        runs.push_back(pinnedRun(opt));
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
        EXPECT_GT(runs[i].report.total.offered, 0u);
        EXPECT_EQ(runs[i].report.total.offered, runs[0].report.total.offered);
        for (std::size_t j = i + 1; j < runs.size(); ++j)
            EXPECT_NE(runs[i].statsHash, runs[j].statsHash)
                << "policies " << i << " and " << j << " served alike";
    }
}

}  // namespace
}  // namespace crophe::serve
