/**
 * @file
 * Schedule explorer: builds the bootstrapping operator graph, runs the
 * CROPHE scheduler and the MAD baseline on the same hardware, prints the
 * discovered dataflow (groups, rotation scheme, NTT decomposition) and
 * the resulting traffic/cycle comparison.
 */

#include <cstdio>

#include "common/logging.h"
#include "graph/workloads.h"
#include "sched/dataflow_report.h"
#include "sched/hybrid_rotation.h"
#include "sched/mad.h"
#include "sched/ntt_decomp.h"
#include "sched/scheduler.h"

using namespace crophe;

int
main()
{
    setVerbose(false);
    graph::FheParams params = graph::paramsArk();
    hw::HwConfig cfg = hw::withSramMB(hw::configCrophe64(), 128.0);

    std::printf("workload: CKKS bootstrapping, %s parameters\n",
                params.name.c_str());
    std::printf("hardware: %s with %.0f MB global buffer\n\n",
                cfg.name.c_str(), cfg.sramMB);

    // MAD baseline on the same chip.
    auto w_mad = graph::buildWorkload("bootstrap", params,
                                      sched::madWorkloadOptions());
    auto mad = sched::scheduleWorkloadMad(w_mad, cfg);

    // CROPHE: rotation-scheme search + full cross-operator scheduling.
    sched::SchedOptions opt;
    auto choice =
        sched::chooseRotationScheme("bootstrap", params, cfg, opt, true);

    std::printf("CROPHE scheduler decisions:\n");
    std::printf("  rotation scheme: %s",
                graph::rotModeName(choice.mode));
    if (choice.mode == graph::RotMode::Hybrid)
        std::printf(" (r_hyb = %u)", choice.rHyb);
    std::printf("\n");

    // Show the dataflow of one segment in detail.
    graph::WorkloadOptions wopt;
    wopt.rotMode = choice.mode;
    wopt.rHyb = choice.rHyb;
    auto w = graph::buildWorkload("bootstrap", params, wopt);
    auto seg_sched = sched::scheduleGraph(w.segments[0].graph, cfg, opt);
    const auto groups = static_cast<u32>(seg_sched.groups->size());
    u32 ops = 0;
    for (const auto &g : *seg_sched.groups)
        ops += static_cast<u32>(g.allocs.size());
    std::printf("  segment '%s': %u ops in %u spatial groups, "
                "%.1f ops/group\n",
                w.segments[0].name.c_str(), ops, groups,
                static_cast<double>(ops) / groups);
    std::printf("  NTT decomposition applied: %s\n",
                sched::countMonolithicNtts(seg_sched.graph) == 0 ? "yes"
                                                                 : "partial");

    std::printf("\ncomparison on %s:\n", cfg.name.c_str());
    std::printf("  %-8s %12s %14s %14s\n", "sched", "cycles",
                "SRAM words", "DRAM words");
    std::printf("  %-8s %12.3e %14.3e %14.3e\n", "MAD", mad.stats.cycles,
                static_cast<double>(mad.stats.sramWords),
                static_cast<double>(mad.stats.dramWords));
    std::printf("  %-8s %12.3e %14.3e %14.3e\n", "CROPHE",
                choice.result.stats.cycles,
                static_cast<double>(choice.result.stats.sramWords),
                static_cast<double>(choice.result.stats.dramWords));
    std::printf("\nCROPHE speedup over MAD on the same chip: %.2fx\n",
                mad.stats.cycles / choice.result.stats.cycles);

    // Emit the dataflow result file (Section VI).
    const char *out = "crophe_dataflow.txt";
    if (sched::writeDataflowReport(seg_sched, cfg, out))
        std::printf("dataflow result written to %s\n", out);
    return 0;
}
