#include "serve/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "telemetry/stats_registry.h"

namespace crophe::serve {

double
percentile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    // Nearest-rank: smallest value with at least q of the mass below it.
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(xs.size())));
    if (rank == 0)
        rank = 1;
    if (rank > xs.size())
        rank = xs.size();
    return xs[rank - 1];
}

double
jainIndex(const std::vector<double> &xs)
{
    double sum = 0.0, sumSq = 0.0;
    for (double x : xs) {
        sum += x;
        sumSq += x * x;
    }
    if (sumSq <= 0.0)
        return 1.0;
    return sum * sum / (static_cast<double>(xs.size()) * sumSq);
}

namespace {

void
finishLatencies(TenantReport &r, std::vector<double> &latenciesMs,
                double duration)
{
    // One sort serves all three percentiles (the vector is scratch, so
    // sorting in place is free); indexing the sorted data reproduces
    // percentile()'s nearest-rank answers exactly.
    std::sort(latenciesMs.begin(), latenciesMs.end());
    auto nearestRank = [&](double q) {
        auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(latenciesMs.size())));
        if (rank == 0)
            rank = 1;
        if (rank > latenciesMs.size())
            rank = latenciesMs.size();
        return latenciesMs[rank - 1];
    };
    if (!latenciesMs.empty()) {
        r.p50Ms = nearestRank(0.50);
        r.p95Ms = nearestRank(0.95);
        r.p99Ms = nearestRank(0.99);
    }
    double sum = 0.0, mx = 0.0;
    for (double x : latenciesMs) {
        sum += x;
        mx = std::max(mx, x);
    }
    r.meanMs = latenciesMs.empty()
                   ? 0.0
                   : sum / static_cast<double>(latenciesMs.size());
    r.maxMs = mx;
    r.goodput =
        duration > 0.0 ? static_cast<double>(r.slaMet) / duration : 0.0;
}

}  // namespace

ServeReport
buildReport(const ServeResult &result,
            const std::vector<TenantSpec> &tenants)
{
    ServeReport rep;
    rep.durationSeconds = result.durationSeconds;
    rep.horizonSeconds = result.horizonSeconds;
    rep.utilization = result.horizonSeconds > 0.0
                          ? result.busySeconds / result.horizonSeconds
                          : 0.0;
    rep.batches = result.batches;
    rep.meanBatchSize =
        result.batches > 0 ? static_cast<double>(result.batchedRequests) /
                                 static_cast<double>(result.batches)
                           : 0.0;
    rep.planCompiles = result.planCompiles;
    rep.planCacheHits = result.planCacheHits;
    rep.truncated = result.truncated;
    rep.recovery = result.recovery;

    rep.tenants.resize(tenants.size());
    std::vector<std::vector<double>> latMs(tenants.size());
    std::vector<double> totalLatMs;
    for (u32 i = 0; i < tenants.size(); ++i)
        rep.tenants[i].name = tenants[i].name;
    rep.total.name = "total";

    for (const auto &o : result.outcomes) {
        TenantReport &t = rep.tenants[o.tenant];
        ++t.offered;
        ++rep.total.offered;
        switch (o.disposition) {
        case Disposition::RejectedThrottled:
            ++t.rejectedThrottled;
            ++rep.total.rejectedThrottled;
            break;
        case Disposition::RejectedOverload:
            ++t.rejectedOverload;
            ++rep.total.rejectedOverload;
            break;
        case Disposition::RejectedBreaker:
            ++t.rejectedBreaker;
            ++rep.total.rejectedBreaker;
            break;
        case Disposition::Expired:
            ++t.admitted;
            ++rep.total.admitted;
            ++t.expired;
            ++rep.total.expired;
            break;
        case Disposition::Completed: {
            ++t.admitted;
            ++rep.total.admitted;
            ++t.completed;
            ++rep.total.completed;
            if (o.slaMet) {
                ++t.slaMet;
                ++rep.total.slaMet;
            } else {
                ++t.slaMissed;
                ++rep.total.slaMissed;
            }
            const double ms = (o.finish - o.arrival) * 1e3;
            latMs[o.tenant].push_back(ms);
            totalLatMs.push_back(ms);
            break;
        }
        }
    }

    std::vector<double> goodputs;
    for (u32 i = 0; i < tenants.size(); ++i) {
        finishLatencies(rep.tenants[i], latMs[i], rep.durationSeconds);
        goodputs.push_back(rep.tenants[i].goodput);
    }
    finishLatencies(rep.total, totalLatMs, rep.durationSeconds);
    rep.jainIndex = jainIndex(goodputs);
    return rep;
}

namespace {

void
registerTenant(const TenantReport &t, telemetry::StatsRegistry &reg,
               const std::string &prefix, bool recoveryActive)
{
    reg.counter(prefix + ".offered", "requests generated").set(t.offered);
    reg.counter(prefix + ".admitted", "requests past admission")
        .set(t.admitted);
    reg.counter(prefix + ".rejected.throttled",
                "token-bucket rejections")
        .set(t.rejectedThrottled);
    reg.counter(prefix + ".rejected.overload", "load-shed rejections")
        .set(t.rejectedOverload);
    if (recoveryActive) {
        reg.counter(prefix + ".rejected.breaker",
                    "circuit-breaker rejections")
            .set(t.rejectedBreaker);
        reg.counter(prefix + ".expired",
                    "admitted requests that ran out of retries/SLA")
            .set(t.expired);
    }
    reg.counter(prefix + ".completed", "requests served to completion")
        .set(t.completed);
    reg.counter(prefix + ".sla.met", "completions within the SLA")
        .set(t.slaMet);
    reg.counter(prefix + ".sla.missed", "completions past the SLA")
        .set(t.slaMissed);
    reg.scalar(prefix + ".latency.p50Ms", "median latency").set(t.p50Ms);
    reg.scalar(prefix + ".latency.p95Ms", "95th-percentile latency")
        .set(t.p95Ms);
    reg.scalar(prefix + ".latency.p99Ms", "99th-percentile latency")
        .set(t.p99Ms);
    reg.scalar(prefix + ".latency.meanMs", "mean latency").set(t.meanMs);
    reg.scalar(prefix + ".latency.maxMs", "max latency").set(t.maxMs);
    reg.scalar(prefix + ".goodput", "SLA-met completions per second")
        .set(t.goodput);
}

}  // namespace

void
registerReport(const ServeReport &report, telemetry::StatsRegistry &reg,
               const std::string &prefix)
{
    // Recovery keys register only when recovery happened, so healthy
    // runs publish byte-identical stats to pre-recovery builds.
    const bool recoveryActive = report.recovery.any();
    registerTenant(report.total, reg, prefix + ".requests", recoveryActive);
    for (const auto &t : report.tenants)
        registerTenant(t, reg, prefix + ".tenant." + t.name,
                       recoveryActive);
    reg.scalar(prefix + ".durationSeconds", "traffic window")
        .set(report.durationSeconds);
    reg.scalar(prefix + ".horizonSeconds", "last completion time")
        .set(report.horizonSeconds);
    reg.scalar(prefix + ".accel.utilization",
               "accelerator busy fraction of the horizon")
        .set(report.utilization);
    reg.scalar(prefix + ".fairness.jain",
               "Jain index over per-tenant goodput")
        .set(report.jainIndex);
    reg.counter(prefix + ".batch.count", "batches dispatched")
        .set(report.batches);
    reg.scalar(prefix + ".batch.meanSize", "mean requests per batch")
        .set(report.meanBatchSize);
    reg.counter(prefix + ".plan.compiles",
                "templates compiled (scheduled + simulated)")
        .set(report.planCompiles);
    reg.counter(prefix + ".plan.cacheHits",
                "template compiles served by the plan cache")
        .set(report.planCacheHits);
    if (recoveryActive) {
        const RecoveryStats &rc = report.recovery;
        reg.counter(prefix + ".recovery.lostBatches",
                    "batches killed mid-flight by chip loss")
            .set(rc.lostBatches);
        reg.counter(prefix + ".recovery.lostRequests",
                    "requests those batches carried")
            .set(rc.lostRequests);
        reg.counter(prefix + ".recovery.replays",
                    "requests re-queued after a failure")
            .set(rc.replays);
        reg.counter(prefix + ".recovery.expired",
                    "admitted requests that ran out of retries/SLA")
            .set(rc.expired);
        reg.counter(prefix + ".recovery.batchFailures",
                    "transient batch failures drawn")
            .set(rc.batchFailures);
        reg.counter(prefix + ".recovery.hedgedBatches",
                    "duplicate dispatches issued")
            .set(rc.hedgedBatches);
        reg.counter(prefix + ".recovery.hedgeWins",
                    "hedged duplicates that finished first")
            .set(rc.hedgeWins);
        reg.counter(prefix + ".recovery.breaker.trips",
                    "circuit-breaker Closed/HalfOpen -> Open transitions")
            .set(rc.breakerTrips);
        reg.counter(prefix + ".recovery.breaker.halfOpens",
                    "circuit-breaker Open -> HalfOpen transitions")
            .set(rc.breakerHalfOpens);
        reg.counter(prefix + ".recovery.breaker.rejected",
                    "requests rejected by an open breaker")
            .set(rc.breakerRejected);
        reg.counter(prefix + ".recovery.repartitions",
                    "online survivor repartitions")
            .set(rc.repartitions);
        reg.scalar(prefix + ".recovery.downtimeSeconds",
                   "virtual repartition downtime")
            .set(rc.downtimeSeconds);
        if (rc.unfiredFaults != 0)
            reg.counter(prefix + ".recovery.unfiredFaults",
                        "timed faults still pending when the run ended")
                .set(rc.unfiredFaults);
    }
    if (report.truncated)
        reg.scalar(prefix + ".truncated", "run was cancelled mid-loop")
            .set(1.0);
}

void
printReport(const ServeReport &report, std::ostream &os)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%-8s %8s %8s %6s %6s %6s %9s %9s %9s %9s\n", "tenant",
                  "offered", "admit", "thr", "ovl", "sla", "p50 ms",
                  "p95 ms", "p99 ms", "goodput");
    os << buf;
    auto row = [&](const TenantReport &t) {
        std::snprintf(buf, sizeof(buf),
                      "%-8s %8llu %8llu %6llu %6llu %6llu %9.3f %9.3f "
                      "%9.3f %9.1f\n",
                      t.name.c_str(),
                      static_cast<unsigned long long>(t.offered),
                      static_cast<unsigned long long>(t.admitted),
                      static_cast<unsigned long long>(t.rejectedThrottled),
                      static_cast<unsigned long long>(t.rejectedOverload),
                      static_cast<unsigned long long>(t.slaMet), t.p50Ms,
                      t.p95Ms, t.p99Ms, t.goodput);
        os << buf;
    };
    for (const auto &t : report.tenants)
        row(t);
    row(report.total);
    std::snprintf(buf, sizeof(buf),
                  "fairness (Jain over goodput): %.4f   utilization: "
                  "%.1f%%   batches: %llu (mean size %.2f)\n",
                  report.jainIndex, 100.0 * report.utilization,
                  static_cast<unsigned long long>(report.batches),
                  report.meanBatchSize);
    os << buf;
    // Printed only when recovery happened: healthy runs keep their
    // stdout byte-identical to pre-recovery builds.
    if (report.recovery.any()) {
        const RecoveryStats &rc = report.recovery;
        std::snprintf(
            buf, sizeof(buf),
            "recovery: lost %llu batches / %llu requests, replayed "
            "%llu, expired %llu, batch failures %llu",
            static_cast<unsigned long long>(rc.lostBatches),
            static_cast<unsigned long long>(rc.lostRequests),
            static_cast<unsigned long long>(rc.replays),
            static_cast<unsigned long long>(rc.expired),
            static_cast<unsigned long long>(rc.batchFailures));
        os << buf;
        if (rc.unfiredFaults != 0)
            os << ", unfired faults " << rc.unfiredFaults;
        os << "\n";
        std::snprintf(
            buf, sizeof(buf),
            "          hedged %llu (won %llu), breaker trips %llu / "
            "half-opens %llu / rejected %llu, repartitions %llu "
            "(downtime %.3f s)\n",
            static_cast<unsigned long long>(rc.hedgedBatches),
            static_cast<unsigned long long>(rc.hedgeWins),
            static_cast<unsigned long long>(rc.breakerTrips),
            static_cast<unsigned long long>(rc.breakerHalfOpens),
            static_cast<unsigned long long>(rc.breakerRejected),
            static_cast<unsigned long long>(rc.repartitions),
            rc.downtimeSeconds);
        os << buf;
    }
}

}  // namespace crophe::serve
