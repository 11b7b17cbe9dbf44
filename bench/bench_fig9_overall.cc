/**
 * @file
 * Reproduces Figure 9: overall performance comparison across the four
 * workloads and all design points (baseline+MAD, CROPHE-hw+MAD, CROPHE,
 * CROPHE-p) for the 64-bit and 36-bit groups.
 *
 * Pass "--simulate" to drive the cycle-level simulator instead of the
 * analytical cost model (slower; same shapes). The run searches each
 * distinct graph once through one plan cache (DESIGN.md §8);
 * --plan-cache DIR (or $CROPHE_PLAN_CACHE) adds its disk tier, so a warm
 * rerun prints byte-identical tables while skipping the search work.
 * With --stats-out FILE the telemetry registry — sched.search.*,
 * sched.enum.* and plan.cache.* — is dumped as JSON, which is how the CI
 * cold/warm job asserts that the second run actually hit the cache.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/baseline.h"
#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/common_flags.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/shutdown.h"
#include "plan/plan_cache.h"
#include "sched/hybrid_rotation.h"
#include "telemetry/telemetry.h"

using namespace crophe;

int
main(int argc, char **argv)
{
    bool simulate = false;
    std::string rot_schemes = "all";
    std::string ks_dataflows = "all";
    cli::FlagParser flags("Figure 9: overall performance comparison.");
    cli::CommonFlags common;
    common.registerInto(flags, cli::CommonFlags::kThreads |
                                   cli::CommonFlags::kStatsOut |
                                   cli::CommonFlags::kPlanCache);
    flags.addBool("--simulate", &simulate,
                  "cycle-level simulation instead of the cost model");
    flags.addString("--rot-schemes", &rot_schemes,
                    "rotation schemes to search "
                    "(minks|hoisting|hybrid|triple|all, comma-separated)",
                    "LIST");
    flags.addString("--ks-dataflows", &ks_dataflows,
                    "key-switch dataflows to search "
                    "(fused|ostat|reordup|all, comma-separated)", "LIST");
    if (!flags.parse(argc, argv))
        return 1;
    const std::string &stats_out = common.statsOut;
    setVerbose(false);
    installShutdownHandler();

    plan::PlanCache cache(common.planCacheDir);
    telemetry::SearchTelemetry search;
    baselines::RunOptions run;
    run.simulate = simulate;
    run.planCache = &cache;
    if (!stats_out.empty())
        run.search = &search;
    try {
        run.rotSchemeMask = sched::parseRotSchemes(rot_schemes);
        run.ksDataflowMask = sched::parseKsDataflows(ks_dataflows);
    } catch (const RecoverableError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        flags.printUsage(argv[0], std::cerr);
        return 1;
    }

    // On SIGINT/SIGTERM the telemetry collected so far is still flushed
    // as valid JSON, with run.truncated marking the early exit.
    auto flush_stats = [&](bool truncated) {
        if (stats_out.empty())
            return true;
        telemetry::StatsRegistry registry;
        search.registerStats(registry, "sched");
        cache.registerStats(registry);
        if (truncated)
            registry.scalar("run.truncated",
                            "run was interrupted by SIGINT/SIGTERM")
                .set(1.0);
        std::ofstream os(stats_out);
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n", stats_out.c_str());
            return false;
        }
        registry.dumpJson(os);
        os << "\n";
        return true;
    };

    const char *workloads[] = {"bootstrap", "helr", "resnet20",
                               "resnet110"};
    for (auto group : {baselines::designs64(), baselines::designs36()}) {
        bench::printHeader(group[0].cfg.wordBits == 64
                               ? "Figure 9 (64-bit group)"
                               : "Figure 9 (36-bit group)");
        // Fan the workload x design matrix out across the pool; rows are
        // printed afterwards in the original order, so stdout is
        // byte-identical to the serial harness.
        const u64 kW = std::size(workloads), kD = group.size();
        std::vector<std::unique_ptr<sched::WorkloadResult>> results(kW * kD);
        parallelFor(0, kW * kD, [&](u64 i) {
            if (shutdownRequested())
                return;  // leave the cell empty; flushed as truncated below
            results[i] = std::make_unique<sched::WorkloadResult>(
                baselines::runDesign(group[i % kD], workloads[i / kD],
                                     run));
        });
        if (shutdownRequested()) {
            std::fprintf(stderr,
                         "\ninterrupted: flushing partial telemetry\n");
            flush_stats(/*truncated=*/true);
            return kShutdownExitCode;
        }
        for (u64 wi = 0; wi < kW; ++wi) {
            std::printf("%s:\n", workloads[wi]);
            double base = results[wi * kD]->stats.cycles;
            for (u64 di = 0; di < kD; ++di)
                bench::printResultRow(*results[wi * kD + di], base);
        }
    }

    // The table above must stay byte-identical across cold and warm cache
    // runs, so the telemetry goes to a file, never to stdout.
    if (!flush_stats(/*truncated=*/false))
        return 1;
    return 0;
}
