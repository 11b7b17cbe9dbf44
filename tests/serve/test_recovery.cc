/**
 * @file
 * Online failure recovery (DESIGN.md §14): retry backoff and the
 * circuit-breaker state machine as units, then the dispatcher's
 * recovery behavior end to end — transient batch failures, mid-run chip
 * loss with batch replay, hedged dispatch, degraded admission — all in
 * hand-computable virtual time via the synthetic service model, plus
 * the conservation invariant (offered == completed + rejected +
 * expired) and byte-identity of chaos runs across thread counts and
 * seeds on the real catalog.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/parallel.h"
#include "graph/params.h"
#include "hw/config.h"
#include "serve/admission.h"
#include "serve/dispatcher.h"
#include "serve/recovery.h"
#include "serve/report.h"
#include "telemetry/stats_registry.h"

namespace crophe::serve {
namespace {

TEST(RetryBackoff, DoublesPerAttemptAndCaps)
{
    RecoveryOptions opt;
    opt.retryBackoffSeconds = 0.010;
    opt.retryBackoffCapSeconds = 0.035;
    EXPECT_DOUBLE_EQ(retryBackoff(opt, 1), 0.010);
    EXPECT_DOUBLE_EQ(retryBackoff(opt, 2), 0.020);
    EXPECT_DOUBLE_EQ(retryBackoff(opt, 3), 0.035);  // capped, not 0.040
    EXPECT_DOUBLE_EQ(retryBackoff(opt, 10), 0.035);
}

TEST(CircuitBreaker, DisabledBreakerAlwaysAdmits)
{
    RecoveryOptions opt;  // breakerThreshold = 0
    CircuitBreaker b(opt, 1);
    EXPECT_TRUE(b.disabled());
    b.onFailure(0, 0.0);
    b.onFailure(0, 1.0);
    EXPECT_TRUE(b.tryAdmit(0, 2.0));
    EXPECT_EQ(b.trips(), 0u);
}

TEST(CircuitBreaker, TripsHalfOpensAndRecovers)
{
    RecoveryOptions opt;
    opt.breakerThreshold = 2;
    opt.breakerResetSeconds = 1.0;
    CircuitBreaker b(opt, 2);

    // Two consecutive failures trip tenant 0; tenant 1 is untouched.
    b.onFailure(0, 0.1);
    EXPECT_EQ(b.state(0), CircuitBreaker::State::Closed);
    b.onFailure(0, 0.2);
    EXPECT_EQ(b.state(0), CircuitBreaker::State::Open);
    EXPECT_EQ(b.trips(), 1u);
    EXPECT_FALSE(b.tryAdmit(0, 0.5));  // still inside the reset dwell
    EXPECT_TRUE(b.tryAdmit(1, 0.5));

    // Past the dwell the next attempt half-opens and admits one trial;
    // concurrent attempts keep being rejected until it resolves.
    EXPECT_TRUE(b.tryAdmit(0, 1.3));
    EXPECT_EQ(b.state(0), CircuitBreaker::State::HalfOpen);
    EXPECT_EQ(b.halfOpens(), 1u);
    EXPECT_FALSE(b.tryAdmit(0, 1.4));

    // Trial failure re-opens for another full dwell.
    b.onFailure(0, 1.5);
    EXPECT_EQ(b.state(0), CircuitBreaker::State::Open);
    EXPECT_EQ(b.trips(), 2u);
    EXPECT_FALSE(b.tryAdmit(0, 2.0));

    // Second trial succeeds: breaker closes, failure count cleared.
    EXPECT_TRUE(b.tryAdmit(0, 2.6));
    b.onSuccess(0);
    EXPECT_EQ(b.state(0), CircuitBreaker::State::Closed);
    b.onFailure(0, 3.0);  // one failure does not re-trip
    EXPECT_EQ(b.state(0), CircuitBreaker::State::Closed);
    EXPECT_EQ(b.trips(), 2u);
}

TEST(Admission, CapacityFractionScalesBucketsAndShedThreshold)
{
    TenantSpec t;
    t.name = "t0";
    t.slaSeconds = 1.0;
    t.bucketRate = 10.0;
    t.bucketBurst = 1.0;
    AdmissionOptions opt;
    opt.shedFactor = 1.0;
    Request r;

    {  // Healthy: one token at t=0, refilled by t=0.1 at 10/s.
        AdmissionController a(opt, {t});
        EXPECT_FALSE(a.decide(r, 0.0, 0.0, 0).has_value());
        EXPECT_FALSE(a.decide(r, 0.1, 0.0, 0).has_value());
    }
    {  // Half capacity from t=0: the 0.1 s refill only accrues half a
       // token, so the second request throttles.
        AdmissionController a(opt, {t});
        EXPECT_FALSE(a.decide(r, 0.0, 0.0, 0).has_value());
        a.setCapacityFraction(0.5, 0.0);
        auto why = a.decide(r, 0.1, 0.0, 0);
        ASSERT_TRUE(why.has_value());
        EXPECT_EQ(*why, RejectReason::Throttled);
    }
    {  // The shed threshold scales too (unlimited bucket, so the
       // throttle check cannot fire first): a projected wait of
       // 0.9 × SLA passes healthy but sheds at half capacity.
        TenantSpec unlimited = t;
        unlimited.bucketRate = 0.0;
        AdmissionController a(opt, {unlimited});
        EXPECT_FALSE(a.decide(r, 0.0, 0.9, 0).has_value());
        a.setCapacityFraction(0.5, 0.1);
        auto why = a.decide(r, 0.2, 0.9, 0);
        ASSERT_TRUE(why.has_value());
        EXPECT_EQ(*why, RejectReason::Overload);
        // Restoring full capacity restores the healthy threshold.
        a.setCapacityFraction(1.0, 0.3);
        EXPECT_FALSE(a.decide(r, 0.4, 0.9, 0).has_value());
    }
}

// ---------------------------------------------------------------------
// Dispatcher scenarios on the synthetic service model: cold 0.1 s, warm
// 0.05 s for every template, so every timeline below is hand-computed.
// ---------------------------------------------------------------------

Catalog
microCatalog()
{
    return buildCatalog(graph::paramsArk(), {"hmult", "hrot", "matvec"});
}

std::vector<TenantSpec>
oneTenant(double sla = 10.0)
{
    TenantSpec t;
    t.name = "t0";
    t.rate = 1.0;
    t.slaSeconds = sla;
    t.mix = {1.0, 1.0, 1.0};
    return {t};
}

Request
request(u64 id, double arrival, double sla = 10.0)
{
    Request r;
    r.id = id;
    r.tenant = 0;
    r.templateIdx = 0;
    r.arrival = arrival;
    r.deadline = arrival + sla;
    return r;
}

ServeOptions
stubOptions()
{
    ServeOptions opt;
    opt.policy = Policy::Fifo;
    opt.admission.shedFactor = 0.0;
    opt.recovery.retryBackoffSeconds = 0.010;
    opt.recovery.repartitionSeconds = 0.050;
    opt.serviceModel = [](const RequestTemplate &) {
        ServiceTimes st;
        st.coldSeconds = 0.1;
        st.warmSeconds = 0.05;
        return st;
    };
    return opt;
}

TEST(Recovery, TransientBatchFailureRetriesThenExpires)
{
    // batch-fail = 1.0: every dispatch fails. One request, 2 retries:
    //   d1 [0, 0.1) cold, fail; replay ready 0.11
    //   d2 [0.11, 0.16) warm (aux resident), fail; ready 0.18
    //   d3 [0.18, 0.23) warm, fail; attempts 3 > 2 -> expires at 0.23.
    auto cat = microCatalog();
    auto tenants = oneTenant();
    ServeOptions opt = stubOptions();
    opt.faultPlan = fault::FaultPlan::parse("batch-fail=1");
    opt.recovery.maxRetries = 2;
    Dispatcher d(hw::configCrophe64(), cat, tenants, opt);
    auto res = d.run({request(0, 0.0)}, 1.0);

    ASSERT_EQ(res.outcomes.size(), 1u);
    EXPECT_EQ(res.outcomes[0].disposition, Disposition::Expired);
    EXPECT_DOUBLE_EQ(res.outcomes[0].finish, 0.23);
    EXPECT_EQ(res.outcomes[0].attempts, 3u);
    EXPECT_EQ(res.recovery.batchFailures, 3u);
    EXPECT_EQ(res.recovery.replays, 2u);
    EXPECT_EQ(res.recovery.expired, 1u);
    EXPECT_EQ(res.recovery.lostBatches, 0u);
    EXPECT_DOUBLE_EQ(res.busySeconds, 0.2);  // 0.1 + 0.05 + 0.05
}

TEST(Recovery, ChipFailKillsInFlightBatchAndReplaysIt)
{
    // 2-chip pod, chip-fail@0.05=1. The batch dispatched at t=0 would
    // finish at 0.1, so the fault kills it at 0.05; the survivor comes
    // back at 0.05 + 0.05 repartition downtime and serves the replay
    // cold (resident aux died with the chip): [0.10, 0.20).
    auto cat = microCatalog();
    auto tenants = oneTenant();
    ServeOptions opt = stubOptions();
    opt.pod.chips = 2;
    opt.faultPlan = fault::FaultPlan::parse("chip-fail@0.05=1", 2);
    Dispatcher d(hw::configCrophe64(), cat, tenants, opt);
    auto res = d.run({request(0, 0.0)}, 1.0);

    ASSERT_EQ(res.outcomes.size(), 1u);
    EXPECT_EQ(res.outcomes[0].disposition, Disposition::Completed);
    EXPECT_DOUBLE_EQ(res.outcomes[0].start, 0.10);
    EXPECT_DOUBLE_EQ(res.outcomes[0].finish, 0.20);
    EXPECT_EQ(res.outcomes[0].attempts, 1u);
    EXPECT_EQ(res.recovery.lostBatches, 1u);
    EXPECT_EQ(res.recovery.lostRequests, 1u);
    EXPECT_EQ(res.recovery.replays, 1u);
    EXPECT_EQ(res.recovery.repartitions, 1u);
    EXPECT_DOUBLE_EQ(res.recovery.downtimeSeconds, 0.05);
    EXPECT_EQ(res.recovery.expired, 0u);
    // Killed copy occupied [0, 0.05), the replay [0.10, 0.20).
    EXPECT_DOUBLE_EQ(res.busySeconds, 0.15);
}

TEST(Recovery, RetryInfeasibleWithinDeadlineExpiresEarly)
{
    // SLA 0.12 s: the kill at 0.05 leaves a replay ready at 0.06, but
    // the earliest warm finish (0.10 repartition + 0.05) already misses
    // arrival + 0.12 only if... here 0.06 + 0.05 warm best case = 0.11
    // <= 0.12 passes the replay check, then the batch at 0.10 runs cold
    // to 0.20 and just misses. Tighten to SLA 0.10: 0.06 + 0.05 > 0.10
    // -> the replay expires immediately at 0.06 without re-queueing.
    auto cat = microCatalog();
    auto tenants = oneTenant(0.10);
    ServeOptions opt = stubOptions();
    opt.pod.chips = 2;
    opt.faultPlan = fault::FaultPlan::parse("chip-fail@0.05=1", 2);
    Dispatcher d(hw::configCrophe64(), cat, tenants, opt);
    auto res = d.run({request(0, 0.0, 0.10)}, 1.0);

    ASSERT_EQ(res.outcomes.size(), 1u);
    EXPECT_EQ(res.outcomes[0].disposition, Disposition::Expired);
    EXPECT_DOUBLE_EQ(res.outcomes[0].finish, 0.06);
    EXPECT_EQ(res.recovery.replays, 0u);  // never re-entered the queue
    EXPECT_EQ(res.recovery.expired, 1u);
}

TEST(Recovery, HedgedReplayDuplicatesOntoIdleGroup)
{
    // 3 chips with hedging: groups {2, 1}. The t=0 batch on the lead
    // group dies at 0.05 (first dispatch is not hedged — only replays
    // are). After the repartition the 2 survivors split {1, 1}; the
    // replay dispatches on both at 0.10, both run cold to 0.20, the
    // primary wins the tie.
    auto cat = microCatalog();
    auto tenants = oneTenant();
    ServeOptions opt = stubOptions();
    opt.pod.chips = 3;
    opt.recovery.hedge = true;
    opt.faultPlan = fault::FaultPlan::parse("chip-fail@0.05=1", 3);
    Dispatcher d(hw::configCrophe64(), cat, tenants, opt);
    auto res = d.run({request(0, 0.0)}, 1.0);

    ASSERT_EQ(res.outcomes.size(), 1u);
    EXPECT_EQ(res.outcomes[0].disposition, Disposition::Completed);
    EXPECT_DOUBLE_EQ(res.outcomes[0].finish, 0.20);
    EXPECT_TRUE(res.outcomes[0].hedged);
    EXPECT_EQ(res.recovery.hedgedBatches, 1u);
    EXPECT_EQ(res.recovery.hedgeWins, 0u);  // tie goes to the primary
}

TEST(Recovery, EventsFireInVirtualTimeOrderWhileABatchWaits)
{
    // 2 chips, chip-fail@0.08=1, shedding at 1 × a 0.2 s SLA:
    //   r0 dispatches at 0 (cold, to 0.1); the fault kills it at 0.08
    //     and its replay is ready at 0.09.
    //   r1 (0.01) is admitted and waits for the busy group.
    //   r2 (0.07) comes before the fault: projected wait 0.03 residual
    //     + 0.05 backlog = 0.08 <= 0.2, so it is admitted. Handled after
    //     the fault and the replay instead, it would face the halved
    //     threshold (0.1) with r0 in the backlog and be shed.
    //   The survivor returns at 0.13 and runs all three cold:
    //     0.13 + 0.1 + 2 × 0.05 = 0.33.
    auto cat = microCatalog();
    auto tenants = oneTenant(0.2);
    ServeOptions opt = stubOptions();
    opt.pod.chips = 2;
    opt.admission.shedFactor = 1.0;
    opt.faultPlan = fault::FaultPlan::parse("chip-fail@0.08=1", 2);
    Dispatcher d(hw::configCrophe64(), cat, tenants, opt);
    auto res = d.run({request(0, 0.0, 0.2), request(1, 0.01, 0.2),
                      request(2, 0.07, 0.2)},
                     1.0);

    ASSERT_EQ(res.outcomes.size(), 3u);
    EXPECT_NE(res.outcomes[2].disposition, Disposition::RejectedOverload);
    for (const RequestOutcome &out : res.outcomes) {
        EXPECT_EQ(out.disposition, Disposition::Completed) << out.id;
        EXPECT_DOUBLE_EQ(out.start, 0.13) << out.id;
        EXPECT_DOUBLE_EQ(out.finish, 0.33) << out.id;
        EXPECT_EQ(out.batchSize, 3u) << out.id;
    }
    EXPECT_EQ(res.recovery.lostBatches, 1u);
    EXPECT_EQ(res.recovery.replays, 1u);
}

TEST(Recovery, BreakerTripsRejectsAndHalfOpens)
{
    // Every batch fails, no retries (fail -> expire), threshold 2:
    //   r0 [0, 0.1) fails -> 1 consecutive
    //   r1 [0.2, 0.25) fails -> trips at 0.25
    //   r2 at 0.3: breaker open -> RejectedBreaker
    //   r3 at 1.5 (> 0.25 + 1.0 reset): half-open trial, fails at 1.55
    //     -> re-opens (trip #2)
    //   r4 at 1.6: still open -> RejectedBreaker
    auto cat = microCatalog();
    auto tenants = oneTenant();
    ServeOptions opt = stubOptions();
    opt.faultPlan = fault::FaultPlan::parse("batch-fail=1");
    opt.recovery.maxRetries = 0;
    opt.recovery.breakerThreshold = 2;
    opt.recovery.breakerResetSeconds = 1.0;
    Dispatcher d(hw::configCrophe64(), cat, tenants, opt);
    auto res = d.run({request(0, 0.0), request(1, 0.2), request(2, 0.3),
                      request(3, 1.5), request(4, 1.6)},
                     2.0);

    ASSERT_EQ(res.outcomes.size(), 5u);
    EXPECT_EQ(res.outcomes[0].disposition, Disposition::Expired);
    EXPECT_EQ(res.outcomes[1].disposition, Disposition::Expired);
    EXPECT_EQ(res.outcomes[2].disposition, Disposition::RejectedBreaker);
    EXPECT_EQ(res.outcomes[3].disposition, Disposition::Expired);
    EXPECT_EQ(res.outcomes[4].disposition, Disposition::RejectedBreaker);
    EXPECT_EQ(res.recovery.breakerTrips, 2u);
    EXPECT_EQ(res.recovery.breakerHalfOpens, 1u);
    EXPECT_EQ(res.recovery.breakerRejected, 2u);
    EXPECT_EQ(res.recovery.batchFailures, 3u);
}

TEST(Recovery, HealthyRunReportsNoRecoveryActivity)
{
    auto cat = microCatalog();
    auto tenants = oneTenant();
    ServeOptions opt = stubOptions();
    Dispatcher d(hw::configCrophe64(), cat, tenants, opt);
    auto res = d.run({request(0, 0.0), request(1, 0.01)}, 1.0);
    EXPECT_FALSE(res.recovery.any());
    auto rep = buildReport(res, tenants);
    EXPECT_FALSE(rep.recovery.any());
    // The recovery block stays out of the stats registry entirely.
    telemetry::StatsRegistry reg;
    registerReport(rep, reg);
    std::ostringstream os;
    reg.dumpJson(os);
    EXPECT_EQ(os.str().find("recovery"), std::string::npos);
}

TEST(Recovery, TimedFaultsThatNeverFireAreReported)
{
    // The only request finishes at 0.1 s, so the run ends before either
    // fault is due; the report says so instead of staying silent.
    auto cat = microCatalog();
    auto tenants = oneTenant();
    ServeOptions opt = stubOptions();
    opt.pod.chips = 2;
    opt.faultPlan =
        fault::FaultPlan::parse("chip-fail@0.5=1,link-degrade@0.6=0.5", 2);
    Dispatcher d(hw::configCrophe64(), cat, tenants, opt);
    auto res = d.run({request(0, 0.0)}, 1.0);
    EXPECT_EQ(res.recovery.unfiredFaults, 2u);
    EXPECT_EQ(res.recovery.repartitions, 0u);
    auto rep = buildReport(res, tenants);
    std::ostringstream text;
    printReport(rep, text);
    EXPECT_NE(text.str().find("batch failures 0, unfired faults 2\n"),
              std::string::npos)
        << text.str();
    telemetry::StatsRegistry reg;
    registerReport(rep, reg);
    EXPECT_EQ(reg.value("serve.recovery.unfiredFaults"), 2.0);

    // A fault that fires leaves nothing pending, and the count stays out
    // of both the text and the stats.
    opt.faultPlan = fault::FaultPlan::parse("chip-fail@0.05=1", 2);
    Dispatcher fired(hw::configCrophe64(), cat, tenants, opt);
    auto fired_rep = buildReport(fired.run({request(0, 0.0)}, 1.0), tenants);
    EXPECT_EQ(fired_rep.recovery.unfiredFaults, 0u);
    EXPECT_EQ(fired_rep.recovery.repartitions, 1u);
    std::ostringstream fired_text;
    printReport(fired_rep, fired_text);
    EXPECT_EQ(fired_text.str().find("unfired"), std::string::npos);
    telemetry::StatsRegistry fired_reg;
    registerReport(fired_rep, fired_reg);
    EXPECT_FALSE(fired_reg.has("serve.recovery.unfiredFaults"));
}

// ---------------------------------------------------------------------
// Real-catalog chaos determinism: exact seeded counts before/after a
// chip failure, and the conservation invariant at 1/2/8 threads under
// two seeds.
// ---------------------------------------------------------------------

std::vector<TenantSpec>
twoTenants()
{
    std::vector<TenantSpec> tenants;
    for (u32 i = 0; i < 2; ++i) {
        TenantSpec t;
        t.name = "t" + std::to_string(i);
        t.rate = i == 0 ? 1200.0 : 800.0;
        t.slaSeconds = 100e-6;  // tight: load sheds and retries expire
        t.weight = 1.0;
        t.bucketRate = i == 0 ? 600.0 : 0.0;  // tenant 0 throttles
        t.bucketBurst = 4.0;
        t.mix = {0.5, 0.3, 0.2};
        tenants.push_back(std::move(t));
    }
    return tenants;
}

ServeReport
chaosRun(const std::string &planSpec, u64 seed,
         std::string *fingerprint = nullptr)
{
    auto cat = microCatalog();
    auto tenants = twoTenants();
    TrafficSpec ts;
    ts.durationSeconds = 0.05;
    ts.seed = seed;
    ts.tenants = tenants;
    auto arrivals = generateTraffic(ts, cat);

    ServeOptions opt;
    opt.policy = Policy::Edf;
    opt.maxBatch = 4;
    opt.admission.shedFactor = 4.0;
    opt.pod.chips = 2;
    opt.recovery.maxRetries = 1;
    opt.recovery.retryBackoffSeconds = 1e-4;
    if (!planSpec.empty())
        opt.faultPlan = fault::FaultPlan::parse(planSpec, opt.pod.chips);
    Dispatcher d(hw::configCrophe64(), cat, tenants, opt);
    auto rep = buildReport(d.run(arrivals, 0.05), tenants);
    if (fingerprint != nullptr) {
        telemetry::StatsRegistry reg;
        registerReport(rep, reg);
        std::ostringstream os;
        reg.dumpJson(os);
        *fingerprint = os.str();
    }
    return rep;
}

/** offered == completed + rejected (all three kinds) + expired. */
void
expectConservation(const ServeReport &rep)
{
    const auto &t = rep.total;
    EXPECT_EQ(t.offered, t.completed + t.rejectedThrottled +
                             t.rejectedOverload + t.rejectedBreaker +
                             t.expired);
    EXPECT_EQ(t.admitted, t.completed + t.expired);
}

TEST(RecoveryDeterminism, ExactSeededCountsBeforeAndAfterChipFail)
{
    // Healthy baseline at seed 77...
    auto healthy = chaosRun("", 77);
    expectConservation(healthy);
    EXPECT_EQ(healthy.total.offered, 100u);
    EXPECT_EQ(healthy.total.rejectedThrottled, 30u);
    EXPECT_EQ(healthy.total.rejectedOverload, 0u);
    EXPECT_EQ(healthy.total.expired, 0u);
    EXPECT_EQ(healthy.total.completed, 70u);

    // ...and the same trace with a mid-window chip loss plus transient
    // batch failures: capacity halves, so admission throttles/sheds
    // more and some retries expire. Counts are exact and seeded.
    auto degraded = chaosRun("seed=5,chip-fail@0.02=1,batch-fail=0.2", 77);
    expectConservation(degraded);
    EXPECT_EQ(degraded.total.offered, 100u);
    EXPECT_EQ(degraded.recovery.repartitions, 1u);
    EXPECT_GT(degraded.recovery.batchFailures +
                  degraded.recovery.lostBatches,
              0u);
    EXPECT_GT(degraded.total.rejectedThrottled +
                  degraded.total.rejectedOverload + degraded.total.expired,
              0u);
    // Golden seeded counts (byte-stable across platforms and threads).
    // Fewer throttles than healthy (30): shedding under the halved
    // threshold rejects most of the backlog before tokens are checked.
    EXPECT_EQ(degraded.total.rejectedThrottled, 8u);
    EXPECT_EQ(degraded.total.rejectedOverload, 51u);
    EXPECT_EQ(degraded.total.expired, 16u);
    EXPECT_EQ(degraded.total.completed, 25u);
}

TEST(RecoveryDeterminism, ChaosRunsAreByteIdenticalAcrossThreadCounts)
{
    const std::string plan = "seed=5,chip-fail@0.02=1,batch-fail=0.2";
    for (u64 seed : {77u, 1234u}) {
        std::string one, two, eight;
        ThreadPool::setGlobalThreads(1);
        expectConservation(chaosRun(plan, seed, &one));
        ThreadPool::setGlobalThreads(2);
        expectConservation(chaosRun(plan, seed, &two));
        ThreadPool::setGlobalThreads(8);
        expectConservation(chaosRun(plan, seed, &eight));
        ThreadPool::setGlobalThreads(0);
        EXPECT_FALSE(one.empty());
        EXPECT_EQ(one, two) << "seed " << seed;
        EXPECT_EQ(two, eight) << "seed " << seed;
    }
}

TEST(RecoveryDeterminism, EmptyFaultPlanIsByteIdenticalToNoPlan)
{
    std::string without, with;
    chaosRun("", 77, &without);
    // "seed=3" alone injects nothing: contractually identical to no
    // plan at all.
    chaosRun("seed=3", 77, &with);
    EXPECT_EQ(without, with);
}

}  // namespace
}  // namespace crophe::serve
