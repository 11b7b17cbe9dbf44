/**
 * @file
 * Reproduces Table IV: PE / NoC / SRAM-bandwidth / DRAM-bandwidth
 * utilization when executing ResNet-20 on each design. The designs share
 * one plan cache, so CROPHE-p reuses CROPHE's searches.
 */

#include <cstdio>

#include "baselines/baseline.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "plan/plan_cache.h"

using namespace crophe;

int
main()
{
    setVerbose(false);
    bench::printHeader("Table IV: resource utilization, ResNet-20");
    std::printf("  %-16s %8s %8s %10s %10s\n", "design", "PEs", "NoC b/w",
                "SRAM b/w", "DRAM b/w");
    const char *names[] = {"ARK+MAD",   "CROPHE-64", "CROPHE-p-64",
                           "SHARP+MAD", "CROPHE-36", "CROPHE-p-36"};
    plan::PlanCache cache;
    baselines::RunOptions run;
    run.planCache = &cache;
    for (const char *name : names) {
        auto d = baselines::designByName(name);
        auto r = baselines::runDesign(d, "resnet20", run);
        // Baselines assume idealized NoC (Section VII-B).
        if (d.mad) {
            std::printf("  %-16s %7.2f%% %8s %9.2f%% %9.2f%%\n", name,
                        100 * r.stats.peUtil, "-", 100 * r.stats.sramBwUtil,
                        100 * r.stats.dramBwUtil);
        } else {
            std::printf("  %-16s %7.2f%% %7.2f%% %9.2f%% %9.2f%%\n", name,
                        100 * r.stats.peUtil, 100 * r.stats.nocUtil,
                        100 * r.stats.sramBwUtil, 100 * r.stats.dramBwUtil);
        }
    }
    return 0;
}
