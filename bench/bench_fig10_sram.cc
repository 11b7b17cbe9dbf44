/**
 * @file
 * Reproduces Figure 10: CROPHE's speedup over the best baseline as the
 * global SRAM capacity shrinks — CROPHE-64 vs ARK (512→64 MB) and
 * CROPHE-36 vs SHARP (180→45 MB), on all four workloads.
 *
 * The run searches each distinct graph once through one plan cache
 * (DESIGN.md §8); --plan-cache DIR (or $CROPHE_PLAN_CACHE) adds its disk
 * tier, which persists plans across runs.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/baseline.h"
#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/common_flags.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/shutdown.h"
#include "plan/plan_cache.h"

using namespace crophe;

namespace {

void
sweep(const char *baseline, const char *crophe, const char *crophe_p,
      std::initializer_list<double> sizes,
      const baselines::RunOptions &run)
{
    const char *workloads[] = {"bootstrap", "helr", "resnet20",
                               "resnet110"};
    const char *designs[] = {baseline, crophe, crophe_p};
    // One job per (workload, size, design) cell, fanned out across the
    // pool; the table is printed afterwards in the original order.
    const u64 kW = std::size(workloads), kS = sizes.size(), kD = 3;
    std::vector<std::unique_ptr<sched::WorkloadResult>> results(kW * kS *
                                                                kD);
    parallelFor(0, results.size(), [&](u64 i) {
        if (shutdownRequested())
            return;  // drained below
        const char *w = workloads[i / (kS * kD)];
        double mb = sizes.begin()[(i / kD) % kS];
        const char *d = designs[i % kD];
        results[i] = std::make_unique<sched::WorkloadResult>(
            baselines::runDesign(
                baselines::withSram(baselines::designByName(d), mb), w,
                run));
    });
    if (shutdownRequested())
        return;  // caller exits with the shutdown code
    for (u64 wi = 0; wi < kW; ++wi) {
        std::printf("%s:\n", workloads[wi]);
        for (u64 si = 0; si < kS; ++si) {
            u64 at = (wi * kS + si) * kD;
            const auto &base = *results[at];
            const auto &c = *results[at + 1];
            const auto &cp = *results[at + 2];
            std::printf("  %6.0f MB: %-10s %9.3e | CROPHE %9.3e "
                        "(%4.2fx) | CROPHE-p %9.3e (%4.2fx)\n",
                        sizes.begin()[si], baseline, base.stats.cycles,
                        c.stats.cycles,
                        base.stats.cycles / c.stats.cycles,
                        cp.stats.cycles,
                        base.stats.cycles / cp.stats.cycles);
        }
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    cli::FlagParser flags("Figure 10: speedup under shrinking SRAM.");
    cli::CommonFlags common;
    common.registerInto(flags, cli::CommonFlags::kThreads |
                                   cli::CommonFlags::kPlanCache);
    if (!flags.parse(argc, argv))
        return 1;
    setVerbose(false);
    installShutdownHandler();

    plan::PlanCache cache(common.planCacheDir);
    baselines::RunOptions run;
    run.planCache = &cache;

    bench::printHeader("Figure 10(a,b): CROPHE-64 vs ARK, shrinking SRAM");
    sweep("ARK+MAD", "CROPHE-64", "CROPHE-p-64", {512.0, 256.0, 128.0,
                                                  64.0}, run);
    if (shutdownRequested()) {
        std::fprintf(stderr, "\ninterrupted\n");
        return kShutdownExitCode;
    }
    bench::printHeader("Figure 10(c,d): CROPHE-36 vs SHARP, shrinking SRAM");
    sweep("SHARP+MAD", "CROPHE-36", "CROPHE-p-36", {180.0, 90.0, 45.0}, run);
    if (shutdownRequested()) {
        std::fprintf(stderr, "\ninterrupted\n");
        return kShutdownExitCode;
    }
    return 0;
}
