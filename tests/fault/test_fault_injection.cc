#include <gtest/gtest.h>

#include <string>

#include <sstream>

#include "common/parallel.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "graph/workloads.h"
#include "hw/config.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "telemetry/stats_registry.h"
#include "telemetry/telemetry.h"

namespace crophe::fault {
namespace {

/** The canonical chaos plan used throughout: every transient knob on.
 *  Rates are high enough that every fault class fires on any segment. */
FaultPlan
chaosPlan()
{
    return FaultPlan::parse(
        "seed=7,dram-err=0.05,dram-ecc=0.5,stalled-channels=2,"
        "noc-fail=0.05");
}

sim::SimStats
simulate(const FaultInjector *faults)
{
    auto p = graph::paramsArk();
    auto g = graph::buildHMult(p, 15);
    auto cfg = hw::configCrophe64();
    auto sched = sched::scheduleGraph(g, cfg, sched::SchedOptions{});
    return sim::simulateSchedule(sched, cfg, nullptr, faults);
}

/** Every field of @p st as --stats-out dumps it (fault counters only when
 *  a plan was active). */
std::string
dump(const sim::SimStats &st)
{
    telemetry::StatsRegistry reg;
    st.accumulateInto(reg);
    std::ostringstream os;
    reg.dumpText(os);
    return os.str();
}

// --- The oracle itself ----------------------------------------------------

TEST(FaultInjector, UniformIsAPureFunctionOfSeedSiteAndIndex)
{
    FaultInjector a(chaosPlan()), b(chaosPlan());
    for (u64 n = 0; n < 256; ++n) {
        double u = a.uniform(FaultSite::DramError, n);
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        // Bit-identical across injector instances: no hidden state.
        EXPECT_EQ(u, b.uniform(FaultSite::DramError, n));
        // Sites are independent streams.
        EXPECT_NE(u, a.uniform(FaultSite::NocLink, n));
    }
}

TEST(FaultInjector, SeedChangesTheStream)
{
    auto plan = chaosPlan();
    FaultInjector a(plan);
    plan.seed = 8;
    FaultInjector b(plan);
    u32 differ = 0;
    for (u64 n = 0; n < 64; ++n)
        if (a.uniform(FaultSite::DramError, n) !=
            b.uniform(FaultSite::DramError, n))
            ++differ;
    EXPECT_GT(differ, 32u);
}

TEST(FaultInjector, RetriesAreBoundedSoSimulationTerminates)
{
    auto plan = FaultPlan::parse("dram-err=0.9,dram-ecc=0,dram-retries=4");
    FaultInjector inj(plan);
    for (u64 n = 0; n < 512; ++n) {
        u32 r = inj.dramRetries(n);
        EXPECT_GE(r, 1u);
        EXPECT_LE(r, plan.dramRetryLimit);
    }
}

TEST(FaultInjector, BackoffDoublesPerRetry)
{
    auto plan = FaultPlan::parse("dram-err=0.1,dram-backoff=100");
    FaultInjector inj(plan);
    EXPECT_DOUBLE_EQ(inj.retryBackoffCycles(1), 100.0);
    EXPECT_DOUBLE_EQ(inj.retryBackoffCycles(2), 300.0);  // 100 + 200
    EXPECT_DOUBLE_EQ(inj.retryBackoffCycles(3), 700.0);  // + 400
}

TEST(FaultInjector, StalledChannelPickIsSeededAndExact)
{
    auto plan = FaultPlan::parse("seed=9,stalled-channels=2");
    FaultInjector a(plan), b(plan);
    u32 stalled = 0;
    for (u32 ch = 0; ch < FaultPlan::kDramChannels; ++ch) {
        EXPECT_EQ(a.channelStalled(ch), b.channelStalled(ch));
        if (a.channelStalled(ch))
            ++stalled;
    }
    EXPECT_EQ(stalled, plan.stalledDramChannels);
}

// --- Chaos simulation contract --------------------------------------------

TEST(FaultInjection, EmptyPlanIsBitIdenticalToNoPlan)
{
    FaultInjector none(FaultPlan{});
    auto clean = simulate(nullptr);
    auto empty = simulate(&none);
    EXPECT_FALSE(empty.faultsEnabled);
    EXPECT_EQ(dump(clean), dump(empty));
    EXPECT_EQ(clean.cycles, empty.cycles);
    EXPECT_EQ(clean.events, empty.events);
}

TEST(FaultInjection, SameSeedGivesByteIdenticalStats)
{
    FaultInjector inj(chaosPlan());
    auto a = simulate(&inj);
    auto b = simulate(&inj);
    EXPECT_TRUE(a.faultsEnabled);
    EXPECT_EQ(dump(a), dump(b));
}

TEST(FaultInjection, FaultsOnlyEverAddLatency)
{
    FaultInjector inj(chaosPlan());
    auto clean = simulate(nullptr);
    auto faulty = simulate(&inj);
    // Retries, stalls and reroutes each charge extra cycles; a chaos run
    // can never beat its healthy twin on the same schedule.
    EXPECT_GE(faulty.cycles, clean.cycles);
    EXPECT_GT(faulty.faultDramEcc + faulty.faultDramRetried +
                  faulty.faultDramStalls + faulty.faultNocReroutes,
              0u);
    // Every retried access performs at least one re-read.
    EXPECT_GE(faulty.faultDramRetries, faulty.faultDramRetried);
}

TEST(FaultInjection, EccFractionSplitsErrorsAsConfigured)
{
    auto plan = chaosPlan();
    plan.dramEccFraction = 1.0;  // every error corrected in place
    FaultInjector all_ecc(plan);
    auto a = simulate(&all_ecc);
    EXPECT_GT(a.faultDramEcc, 0u);
    EXPECT_EQ(a.faultDramRetried, 0u);

    plan.dramEccFraction = 0.0;  // every error retried
    FaultInjector no_ecc(plan);
    auto b = simulate(&no_ecc);
    EXPECT_EQ(b.faultDramEcc, 0u);
    EXPECT_GT(b.faultDramRetried, 0u);
}

TEST(FaultInjection, StalledChannelsSlowTheRunDown)
{
    auto plan = FaultPlan::parse(
        "seed=3,stalled-channels=4,channel-stall=500");
    FaultInjector inj(plan);
    auto clean = simulate(nullptr);
    auto stalled = simulate(&inj);
    EXPECT_GT(stalled.faultDramStalls, 0u);
    EXPECT_GE(stalled.cycles, clean.cycles);
}

class FaultInjectionThreads : public testing::Test
{
  protected:
    void TearDown() override { ThreadPool::setGlobalThreads(0); }
};

TEST_F(FaultInjectionThreads, WorkloadChaosIsBitIdenticalAcrossThreadCounts)
{
    // Segments of a workload simulate concurrently; the injector's local
    // draw counters advance in simulated-event order, so the host thread
    // count must not leak into the fault decisions (DESIGN.md §9).
    FaultInjector inj(chaosPlan());
    auto p = graph::paramsSharp();
    graph::WorkloadOptions wopt;
    wopt.rotMode = graph::RotMode::Hybrid;
    wopt.rHyb = 4;
    auto w = graph::buildResNet20(p, wopt);
    auto cfg = hw::configCrophe36();
    sched::SchedOptions opt;

    std::string dumps[2];
    double cycles[2];
    u32 threads[] = {1, 8};
    for (int i = 0; i < 2; ++i) {
        ThreadPool::setGlobalThreads(threads[i]);
        telemetry::StatsRegistry reg;
        telemetry::SimTelemetry telem;
        telem.registry = &reg;
        auto r = sim::simulateWorkload(w, cfg, opt, &telem, &inj);
        cycles[i] = r.stats.cycles;
        std::ostringstream os;
        reg.dumpJson(os);
        dumps[i] = os.str();
    }
    EXPECT_EQ(cycles[0], cycles[1]);
    EXPECT_EQ(dumps[0], dumps[1]);
    // The dump must actually carry the chaos evidence.
    EXPECT_NE(dumps[0].find("fault"), std::string::npos);
}

}  // namespace
}  // namespace crophe::fault
