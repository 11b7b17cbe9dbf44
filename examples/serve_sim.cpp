/**
 * @file
 * Multi-tenant serving simulation (DESIGN.md §11): generate a seeded
 * open-loop arrival trace over the workload catalog, run the
 * virtual-time dispatcher on one accelerator config, and report
 * per-tenant latency percentiles, goodput, rejections and fairness.
 *
 * Everything is deterministic: a fixed --seed and flag set produce
 * byte-identical stdout, --stats-out JSON and --trace-out JSON at any
 * --threads value. The stdout table contains no plan-cache-dependent
 * numbers, so a cold-cache and a warm-cache run (same flags,
 * --plan-ms 0) print byte-identical tables; the cache's effect shows up
 * in --stats-out under serve.plan.* and plan.cache.*, and — with
 * --plan-ms > 0 — as lower tail latency (the virtual planning charge is
 * waived on cache hits).
 *
 * Failure recovery (DESIGN.md §14): --fault-plan accepts the timed
 * chip-fail@T=K / link-degrade@T=F / batch-fail events, the recovery
 * knobs (--retries, --breaker-threshold, --hedge, ...) shape how the
 * dispatcher reacts, and --chaos-soak N replaces the single run with N
 * seeded random fault scenarios, each checked for request conservation
 * (offered == completed + rejected + expired). An empty or absent fault
 * plan leaves every byte of output identical to pre-recovery builds.
 *
 * SIGINT/SIGTERM stop the event loop and flush partial telemetry
 * (marked truncated), exiting 130.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/baseline.h"
#include "common/cli.h"
#include "common/common_flags.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/shutdown.h"
#include "fault/fault_plan.h"
#include "plan/plan_cache.h"
#include "serve/dispatcher.h"
#include "serve/report.h"
#include "serve/traffic.h"
#include "telemetry/stats_registry.h"
#include "telemetry/trace_recorder.h"

using namespace crophe;

namespace {

/**
 * Derive the @p iter-th chaos scenario from @p seed: always a transient
 * batch-fail rate, plus (on a multi-chip pod) one mid-window chip-fail
 * that leaves at least one survivor and, half the time, a link
 * degradation. Pure function of (seed, iter) — the soak is byte-identical
 * across runs and thread counts.
 */
fault::FaultPlan
chaosScenario(u32 seed, u32 iter, u32 chips, double duration)
{
    Rng rng(static_cast<u64>(seed) * 0x9e3779b97f4a7c15ULL + iter + 1);
    fault::FaultPlan plan;
    plan.seed = rng.next();
    plan.batchFailRate = 0.02 + 0.08 * rng.nextDouble();
    if (chips > 1) {
        fault::ChipFailEvent ev;
        ev.seconds = duration * (0.1 + 0.8 * rng.nextDouble());
        ev.chips = 1 + static_cast<u32>(rng.nextBounded(chips - 1));
        plan.chipFails.push_back(ev);
        if (rng.nextBounded(2) == 0) {
            fault::LinkDegradeEvent ld;
            ld.seconds = duration * (0.1 + 0.8 * rng.nextDouble());
            ld.fraction = 0.3 + 0.6 * rng.nextDouble();
            plan.linkDegrades.push_back(ld);
        }
    }
    return plan;
}

/**
 * Run @p iterations seeded chaos scenarios over the same arrival trace
 * and assert the conservation invariant on each: every offered request
 * reaches exactly one terminal state. Returns 0 when every scenario
 * holds, 1 on a violation, kShutdownExitCode on SIGINT.
 */
int
runChaosSoak(const baselines::DesignSpec &design,
             const serve::Catalog &catalog,
             const std::vector<serve::TenantSpec> &specs,
             const std::vector<serve::Request> &arrivals, double duration,
             const serve::ServeOptions &base, u32 seed, u32 iterations)
{
    std::printf("chaos soak: %u scenarios over %zu arrivals (seed %u)\n\n",
                iterations, arrivals.size(), seed);
    for (u32 i = 0; i < iterations; ++i) {
        serve::ServeOptions opt = base;
        opt.trace = nullptr;  // soak telemetry is the stdout summary
        opt.faultPlan = chaosScenario(seed, i, opt.pod.chips, duration);
        serve::Dispatcher dispatcher(design.cfg, catalog, specs, opt);
        auto result = dispatcher.run(arrivals, duration);
        if (result.truncated) {
            std::fprintf(stderr, "\ninterrupted: soak aborted\n");
            return kShutdownExitCode;
        }
        auto report = serve::buildReport(result, specs);
        const auto &t = report.total;
        const u64 rejected = t.rejectedThrottled + t.rejectedOverload +
                             t.rejectedBreaker;
        const u64 accounted = t.completed + rejected + t.expired;
        std::printf("soak %2u: plan \"%s\"\n", i,
                    opt.faultPlan.toString().c_str());
        std::printf("         offered=%llu completed=%llu rejected=%llu "
                    "expired=%llu replays=%llu lost=%llu\n",
                    (unsigned long long)t.offered,
                    (unsigned long long)t.completed,
                    (unsigned long long)rejected,
                    (unsigned long long)t.expired,
                    (unsigned long long)report.recovery.replays,
                    (unsigned long long)report.recovery.lostRequests);
        if (accounted != t.offered) {
            std::fprintf(stderr,
                         "soak %u: CONSERVATION VIOLATED: offered %llu != "
                         "completed %llu + rejected %llu + expired %llu\n",
                         i, (unsigned long long)t.offered,
                         (unsigned long long)t.completed,
                         (unsigned long long)rejected,
                         (unsigned long long)t.expired);
            return 1;
        }
    }
    std::printf("\nchaos soak passed: conservation held on all %u "
                "scenarios\n",
                iterations);
    return 0;
}

int
run(int argc, char **argv)
{
    double duration = 2.0;
    double arrival_rate = 30.0;
    u32 tenants = 2;
    std::string mix_name = "blend";
    double sla_ms = 100.0;
    std::string design_name = "CROPHE-36";
    std::string policy_name = "edf";
    u32 max_batch = 8;
    double plan_ms = 0.0;
    double shed_factor = 8.0;
    double bucket_rate = 0.0;
    double bucket_burst = 4.0;
    double search_deadline = 0.0;
    u32 chips = 1;
    double link_gbs = 600.0;
    double link_latency = 500.0;
    std::string fault_spec = fault::FaultPlan::specFromEnv();
    u32 retries = 2;
    double retry_backoff_ms = 10.0;
    u32 breaker_threshold = 0;
    double breaker_reset_ms = 1000.0;
    double repartition_ms = 50.0;
    bool hedge = false;
    u32 chaos_soak = 0;

    cli::FlagParser flags(
        "Multi-tenant FHE serving simulation on one accelerator.");
    cli::CommonFlags common;
    common.registerInto(flags, cli::CommonFlags::kThreads |
                                   cli::CommonFlags::kStatsOut |
                                   cli::CommonFlags::kTraceOut |
                                   cli::CommonFlags::kPlanCache |
                                   cli::CommonFlags::kSeed);
    flags.addDouble("--duration", &duration,
                    "traffic window in virtual seconds");
    flags.addDouble("--arrival-rate", &arrival_rate,
                    "aggregate Poisson arrival rate (req/s, split evenly "
                    "across tenants)");
    flags.addUint("--tenants", &tenants, "number of tenants");
    flags.addString("--mix", &mix_name,
                    "workload mix: bootstrap, matvec, blend, or micro",
                    "MIX");
    flags.addDouble("--sla-ms", &sla_ms, "per-request SLA in milliseconds");
    flags.addString("--design", &design_name,
                    "accelerator design (Table I name)", "DESIGN");
    flags.addString("--policy", &policy_name,
                    "queue ordering: fifo, edf, or wfq", "POLICY");
    flags.addUint("--max-batch", &max_batch,
                  "max same-template requests per dispatch");
    flags.addDouble("--plan-ms", &plan_ms,
                    "virtual planning latency per graph op on a "
                    "plan-cache miss (ms)");
    flags.addDouble("--shed-factor", &shed_factor,
                    "shed when projected wait exceeds factor x SLA "
                    "(0 = never)");
    flags.addDouble("--bucket-rate", &bucket_rate,
                    "per-tenant admission tokens per second (0 = "
                    "unlimited)");
    flags.addDouble("--bucket-burst", &bucket_burst,
                    "per-tenant token-bucket burst size");
    flags.addDouble("--search-deadline", &search_deadline,
                    "anytime budget per cache-miss schedule search in "
                    "seconds (nonzero trades determinism for bounded "
                    "wall-clock)");
    flags.addUint("--chips", &chips,
                  "accelerators in the serving pod (1 = single chip)");
    flags.addDouble("--link-gbs", &link_gbs,
                    "pod ring-link bandwidth per direction (GB/s)");
    flags.addDouble("--link-latency", &link_latency,
                    "pod ring-link latency per hop (chip cycles)");
    flags.addString("--fault-plan", &fault_spec,
                    "fault spec (default $CROPHE_FAULT_PLAN); timed "
                    "chip-fail@T=K, link-degrade@T=F and batch-fail "
                    "events drive online recovery (DESIGN.md 14)",
                    "SPEC");
    flags.addUint("--retries", &retries,
                  "failed attempts a request may retry before expiring");
    flags.addDouble("--retry-backoff-ms", &retry_backoff_ms,
                    "backoff before the first retry (doubles per retry)");
    flags.addUint("--breaker-threshold", &breaker_threshold,
                  "consecutive failures that trip a tenant's circuit "
                  "breaker (0 = disabled)");
    flags.addDouble("--breaker-reset-ms", &breaker_reset_ms,
                    "open-breaker dwell before a half-open trial");
    flags.addDouble("--repartition-ms", &repartition_ms,
                    "virtual downtime per online survivor repartition");
    flags.addBool("--hedge", &hedge,
                  "duplicate retried batches onto an idle second chip "
                  "group (needs >= 2 alive chips)");
    flags.addUint("--chaos-soak", &chaos_soak,
                  "run N seeded random fault scenarios and assert request "
                  "conservation (ignores --fault-plan and telemetry "
                  "outputs)");
    if (!flags.parse(argc, argv))
        return 1;
    const u32 seed = common.seed;
    const std::string &plan_dir = common.planCacheDir;
    const std::string &stats_out = common.statsOut;
    const std::string &trace_out = common.traceOut;

    // Flag-domain validation (DESIGN.md §9): nonsensical values are
    // rejected here with a typed error + usage instead of reaching the
    // dispatcher. The fault plan parses against the pod size, so a plan
    // that would kill the whole pod is a flag error, not a crash.
    fault::FaultPlan fplan;
    try {
        cli::requirePositive("--duration", duration);
        cli::requirePositive("--arrival-rate", arrival_rate);
        cli::requirePositive("--tenants", tenants);
        cli::requirePositive("--sla-ms", sla_ms);
        cli::requirePositive("--max-batch", max_batch);
        cli::requireNonNegative("--plan-ms", plan_ms);
        cli::requireNonNegative("--shed-factor", shed_factor);
        cli::requireNonNegative("--bucket-rate", bucket_rate);
        cli::requireNonNegative("--bucket-burst", bucket_burst);
        cli::requireNonNegative("--search-deadline", search_deadline);
        cli::requirePositive("--chips", chips);
        cli::requirePositive("--link-gbs", link_gbs);
        cli::requireNonNegative("--link-latency", link_latency);
        cli::requireNonNegative("--retry-backoff-ms", retry_backoff_ms);
        cli::requireNonNegative("--breaker-reset-ms", breaker_reset_ms);
        cli::requireNonNegative("--repartition-ms", repartition_ms);
        if (chaos_soak == 0 && !fault_spec.empty())
            fplan = fault::FaultPlan::parse(fault_spec, chips);
    } catch (const RecoverableError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        flags.printUsage(argv[0], std::cerr);
        return 1;
    }

    installShutdownHandler();
    setVerbose(false);

    std::unique_ptr<plan::PlanCache> cache;
    if (!plan_dir.empty())
        cache = std::make_unique<plan::PlanCache>(plan_dir);

    auto design = baselines::designByName(design_name);
    auto mix = serve::mixByName(mix_name);
    auto catalog = serve::buildCatalog(design.params, mix.templates);

    std::vector<serve::TenantSpec> specs;
    for (u32 i = 0; i < tenants; ++i) {
        serve::TenantSpec t;
        // append, not "t" + ...: GCC 12 reports a false -Wrestrict there.
        t.name = std::string("t").append(std::to_string(i));
        t.process = serve::ArrivalProcess::Poisson;
        t.rate = arrival_rate / tenants;
        t.slaSeconds = sla_ms * 1e-3;
        t.weight = 1.0;
        t.bucketRate = bucket_rate;
        t.bucketBurst = bucket_burst;
        t.mix = mix.weights;
        specs.push_back(std::move(t));
    }

    serve::TrafficSpec traffic;
    traffic.durationSeconds = duration;
    traffic.seed = seed;
    traffic.tenants = specs;
    auto arrivals = serve::generateTraffic(traffic, catalog);

    std::printf("serving %s traffic on %s (%u tenants, %.0f req/s, "
                "%.2fs window, %zu arrivals, seed %u)\n",
                mix.name.c_str(), design.cfg.name.c_str(), tenants,
                arrival_rate, duration, arrivals.size(), seed);
    std::printf("policy %s, max batch %u, SLA %.1f ms\n",
                policy_name.c_str(), max_batch, sla_ms);
    if (chips > 1)
        std::printf("pod: %u chips, ring links %.0f GB/s, hop latency "
                    "%.0f cycles\n",
                    chips, link_gbs, link_latency);
    if (!fplan.empty())
        std::printf("fault plan: %s\n", fplan.toString().c_str());

    telemetry::TraceRecorder recorder;
    telemetry::StatsRegistry registry;

    serve::ServeOptions opt;
    opt.policy = serve::policyByName(policy_name);
    opt.maxBatch = max_batch;
    opt.admission.shedFactor = shed_factor;
    opt.planSecondsPerOp = plan_ms * 1e-3;
    opt.searchDeadlineSeconds = search_deadline;
    opt.planCache = cache.get();
    opt.pod.chips = chips;
    opt.pod.linkGBs = link_gbs;
    opt.pod.linkLatencyCycles = link_latency;
    opt.pod.deadChips = fplan.deadChips;
    opt.faultPlan = fplan;
    opt.recovery.maxRetries = retries;
    opt.recovery.retryBackoffSeconds = retry_backoff_ms * 1e-3;
    opt.recovery.breakerThreshold = breaker_threshold;
    opt.recovery.breakerResetSeconds = breaker_reset_ms * 1e-3;
    opt.recovery.hedge = hedge;
    opt.recovery.repartitionSeconds = repartition_ms * 1e-3;
    if (!trace_out.empty())
        opt.trace = &recorder;
    opt.cancelled = []() { return shutdownRequested(); };

    if (chaos_soak > 0)
        return runChaosSoak(design, catalog, specs, arrivals, duration, opt,
                            seed, chaos_soak);

    serve::Dispatcher dispatcher(design.cfg, catalog, specs, opt);
    auto result = dispatcher.run(arrivals, duration);
    auto report = serve::buildReport(result, specs);

    std::printf("\n");
    serve::printReport(report, std::cout);

    bool ok = true;
    if (!stats_out.empty()) {
        serve::registerReport(report, registry);
        if (cache != nullptr)
            cache->registerStats(registry);
        std::ofstream os(stats_out);
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n", stats_out.c_str());
            ok = false;
        } else {
            registry.dumpJson(os);
            os << "\n";
            std::printf("\ntelemetry registry (%zu stats) written to %s\n",
                        registry.size(), stats_out.c_str());
        }
    }
    if (!trace_out.empty()) {
        std::ofstream os(trace_out);
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
            ok = false;
        } else {
            recorder.writeJson(os);
            std::printf("wrote %zu trace events to %s "
                        "(load in ui.perfetto.dev)\n",
                        recorder.events().size(), trace_out.c_str());
        }
    }
    if (result.truncated) {
        std::fprintf(stderr, "\ninterrupted: partial results flushed\n");
        return kShutdownExitCode;
    }
    return ok ? 0 : 1;
}

}  // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const RecoverableError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
