/**
 * @file
 * Tracked serving benchmark (DESIGN.md §11): goodput and tail latency
 * versus offered load for two workload mix profiles on CROPHE-36.
 *
 * For each mix the bench probes the per-template warm service times,
 * derives the accelerator's steady-state capacity (requests/s at batch
 * size 1), then sweeps offered load at 0.25/0.5/1.0/2.0x capacity with
 * a two-tenant Poisson trace. A single in-memory plan cache is shared
 * across all sweep points, so only the first point per mix pays
 * schedule compiles. Everything downstream of the (wall-clock) compile
 * probe runs in virtual time, so the reported numbers are deterministic
 * for a fixed seed and --threads does not change them.
 *
 * Flags:
 *   --json <path>   write BENCH_serve.json-style output
 *   --smoke         short traces for CI
 *   --seed N        traffic seed (default 42)
 *   --threads N     size the process-wide pool (wall-clock only)
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "baselines/baseline.h"
#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/common_flags.h"
#include "common/error.h"
#include "fault/fault_plan.h"
#include "plan/plan_cache.h"
#include "serve/dispatcher.h"
#include "serve/report.h"
#include "serve/traffic.h"

using namespace crophe;

namespace {

struct Point
{
    std::string mix;
    std::string scenario = "healthy";  ///< "healthy" or "chip-fail"
    double loadFactor = 0.0;
    double offeredRps = 0.0;
    double admittedRps = 0.0;
    double goodputRps = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double slaMs = 0.0;
    double utilization = 0.0;
    double meanBatch = 0.0;
    u64 rejected = 0;
};

std::vector<serve::TenantSpec>
tenants(const serve::MixProfile &mix, double totalRate, double slaSeconds)
{
    std::vector<serve::TenantSpec> specs;
    for (u32 i = 0; i < 2; ++i) {
        serve::TenantSpec t;
        // append, not "t" + ...: GCC 12 reports a false -Wrestrict there.
        t.name = std::string("t").append(std::to_string(i));
        t.rate = totalRate / 2.0;
        t.slaSeconds = slaSeconds;
        t.mix = mix.weights;
        specs.push_back(std::move(t));
    }
    return specs;
}

void
sweepMix(const std::string &mixName, const baselines::DesignSpec &design,
         plan::PlanCache &cache, double duration, u32 seed,
         std::vector<Point> &out)
{
    auto mix = serve::mixByName(mixName);
    auto catalog = serve::buildCatalog(design.params, mix.templates);

    // Probe warm service times (fills the shared plan cache as a side
    // effect, so every sweep point below runs cache-warm).
    serve::ServeOptions probeOpt;
    probeOpt.planCache = &cache;
    serve::Dispatcher probe(design.cfg, catalog,
                            tenants(mix, 1.0, 1.0), probeOpt);
    double weightSum = 0.0, meanWarm = 0.0;
    for (u32 i = 0; i < catalog.templates.size(); ++i) {
        meanWarm += mix.weights[i] * probe.service(i).warmSeconds;
        weightSum += mix.weights[i];
    }
    meanWarm /= weightSum;
    const double capacity = 1.0 / meanWarm;
    const double sla = 10.0 * meanWarm;

    bench::printHeader("mix " + mixName + " on " + design.cfg.name);
    std::printf("  mean warm service %.3f ms -> capacity %.1f req/s, "
                "SLA %.1f ms\n",
                meanWarm * 1e3, capacity, sla * 1e3);
    std::printf("  %-6s %10s %10s %10s %9s %9s %6s %6s\n", "load",
                "offered", "admitted", "goodput", "p50ms", "p99ms",
                "util", "batch");

    for (double factor : {0.25, 0.5, 1.0, 2.0}) {
        auto specs = tenants(mix, factor * capacity, sla);
        serve::TrafficSpec ts;
        ts.durationSeconds = duration;
        ts.seed = seed;
        ts.tenants = specs;
        auto arrivals = serve::generateTraffic(ts, catalog);

        serve::ServeOptions opt;
        opt.policy = serve::Policy::Edf;
        opt.maxBatch = 8;
        opt.admission.shedFactor = 8.0;
        opt.planCache = &cache;
        serve::Dispatcher d(design.cfg, catalog, specs, opt);
        auto rep = serve::buildReport(d.run(arrivals, duration), specs);

        Point p;
        p.mix = mixName;
        p.loadFactor = factor;
        p.offeredRps = static_cast<double>(rep.total.offered) / duration;
        p.admittedRps = static_cast<double>(rep.total.admitted) / duration;
        p.goodputRps = rep.total.goodput;
        p.p50Ms = rep.total.p50Ms;
        p.p99Ms = rep.total.p99Ms;
        p.slaMs = sla * 1e3;
        p.utilization = rep.utilization;
        p.meanBatch = rep.meanBatchSize;
        p.rejected = rep.total.rejectedThrottled + rep.total.rejectedOverload;
        out.push_back(p);

        std::printf("  %5.2fx %10.1f %10.1f %10.1f %9.3f %9.3f %5.1f%% "
                    "%6.2f\n",
                    factor, p.offeredRps, p.admittedRps, p.goodputRps,
                    p.p50Ms, p.p99Ms, 100.0 * p.utilization, p.meanBatch);
    }
}

/**
 * Degraded-capacity row (DESIGN.md §14): the matvec mix at 1.0x
 * capacity on a 2-chip pod, healthy versus losing one chip mid-window.
 * The chip loss kills the in-flight batches, halves the admission
 * capacity and forces a survivor repartition, so goodput drops and p99
 * stretches — deterministically, for a fixed seed.
 */
void
degradedCapacitySweep(const baselines::DesignSpec &design,
                      plan::PlanCache &cache, double duration, u32 seed,
                      std::vector<Point> &out)
{
    auto mix = serve::mixByName("matvec");
    auto catalog = serve::buildCatalog(design.params, mix.templates);

    // Warm capacity probe on the healthy 2-chip pod.
    serve::ServeOptions probeOpt;
    probeOpt.planCache = &cache;
    probeOpt.pod.chips = 2;
    serve::Dispatcher probe(design.cfg, catalog, tenants(mix, 1.0, 1.0),
                            probeOpt);
    double weightSum = 0.0, meanWarm = 0.0;
    for (u32 i = 0; i < catalog.templates.size(); ++i) {
        meanWarm += mix.weights[i] * probe.service(i).warmSeconds;
        weightSum += mix.weights[i];
    }
    meanWarm /= weightSum;
    const double capacity = 1.0 / meanWarm;
    const double sla = 10.0 * meanWarm;

    bench::printHeader("degraded capacity: mix matvec on a 2-chip " +
                       design.cfg.name + " pod");
    char failAt[64];
    std::snprintf(failAt, sizeof failAt, "%g", duration / 2.0);
    std::printf("  1.00x load (%.1f req/s); chip-fail scenario loses one "
                "chip at t=%ss\n",
                capacity, failAt);
    std::printf("  %-9s %10s %10s %10s %9s %9s %6s\n", "scenario",
                "offered", "admitted", "goodput", "p50ms", "p99ms",
                "util");

    for (const char *scenario : {"healthy", "chip-fail"}) {
        auto specs = tenants(mix, capacity, sla);
        serve::TrafficSpec ts;
        ts.durationSeconds = duration;
        ts.seed = seed;
        ts.tenants = specs;
        auto arrivals = serve::generateTraffic(ts, catalog);

        serve::ServeOptions opt;
        opt.policy = serve::Policy::Edf;
        opt.maxBatch = 8;
        opt.admission.shedFactor = 8.0;
        opt.planCache = &cache;
        opt.pod.chips = 2;
        if (std::string(scenario) == "chip-fail")
            opt.faultPlan = fault::FaultPlan::parse(
                "chip-fail@" + std::string(failAt) + "=1", opt.pod.chips);
        serve::Dispatcher d(design.cfg, catalog, specs, opt);
        auto rep = serve::buildReport(d.run(arrivals, duration), specs);

        Point p;
        p.mix = "matvec-pod";
        p.scenario = scenario;
        p.loadFactor = 1.0;
        p.offeredRps = static_cast<double>(rep.total.offered) / duration;
        p.admittedRps = static_cast<double>(rep.total.admitted) / duration;
        p.goodputRps = rep.total.goodput;
        p.p50Ms = rep.total.p50Ms;
        p.p99Ms = rep.total.p99Ms;
        p.slaMs = sla * 1e3;
        p.utilization = rep.utilization;
        p.meanBatch = rep.meanBatchSize;
        p.rejected = rep.total.rejectedThrottled +
                     rep.total.rejectedOverload + rep.total.rejectedBreaker;
        out.push_back(p);

        std::printf("  %-9s %10.1f %10.1f %10.1f %9.3f %9.3f %5.1f%%\n",
                    scenario, p.offeredRps, p.admittedRps, p.goodputRps,
                    p.p50Ms, p.p99Ms, 100.0 * p.utilization);
    }
}

void
writeJson(const std::string &path, const std::vector<Point> &points,
          bool smoke, u32 seed)
{
    std::ofstream os(path);
    if (!os)
        throw RecoverableError("cannot write " + path);
    os << "{\n  \"bench\": \"bench_serve\",\n";
    os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
    os << "  \"seed\": " << seed << ",\n  \"results\": [\n";
    char buf[512];
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        std::snprintf(
            buf, sizeof buf,
            "    {\"mix\": \"%s\", \"scenario\": \"%s\", "
            "\"load_factor\": %.2f, "
            "\"offered_rps\": %.1f, \"admitted_rps\": %.1f, "
            "\"goodput_rps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
            "\"sla_ms\": %.3f, \"utilization\": %.3f, "
            "\"mean_batch\": %.2f, \"rejected\": %llu}%s\n",
            p.mix.c_str(), p.scenario.c_str(), p.loadFactor, p.offeredRps,
            p.admittedRps,
            p.goodputRps, p.p50Ms, p.p99Ms, p.slaMs, p.utilization,
            p.meanBatch, static_cast<unsigned long long>(p.rejected),
            i + 1 < points.size() ? "," : "");
        os << buf;
    }
    os << "  ]\n}\n";
    std::printf("\nwrote %zu sweep points to %s\n", points.size(),
                path.c_str());
}

}  // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string json;
    cli::FlagParser flags(
        "Serving bench: goodput and tail latency vs offered load.");
    cli::CommonFlags common;
    common.registerInto(flags, cli::CommonFlags::kThreads |
                                   cli::CommonFlags::kSeed);
    flags.addBool("--smoke", &smoke, "short traces for CI");
    flags.addString("--json", &json, "write BENCH_serve.json-style output",
                    "FILE");
    if (!flags.parse(argc, argv))
        return 1;
    const u32 seed = common.seed;

    try {
        const double duration = smoke ? 2.0 : 10.0;
        auto design = baselines::designByName("CROPHE-36");
        plan::PlanCache cache;  // shared across mixes and sweep points
        std::vector<Point> points;
        sweepMix("bootstrap", design, cache, duration, seed, points);
        sweepMix("matvec", design, cache, duration, seed, points);
        degradedCapacitySweep(design, cache, duration, seed, points);
        if (!json.empty())
            writeJson(json, points, smoke, seed);
    } catch (const RecoverableError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
