/**
 * @file
 * Reproduces Figure 11: the contribution of each CROPHE technique on the
 * bootstrapping workload at a small SRAM capacity, together with the SRAM
 * and DRAM access traffic — MAD on CROPHE hardware, the basic
 * cross-operator dataflow ("Base"), +NTT decomposition, +hybrid rotation,
 * and both combined; against the corresponding baseline accelerator.
 *
 * With --stats-out FILE the per-technique totals (fig11.*), the
 * scheduler's search telemetry (sched.search.*, sched.enum.*) and the
 * simulated sim.* totals of the winning configuration are dumped as JSON,
 * so the figure can be regenerated straight from telemetry. With
 * --trace-out FILE the winning configuration's cycle-level simulation is
 * recorded as Perfetto-loadable Chrome trace JSON. --plan-cache DIR (or
 * $CROPHE_PLAN_CACHE) adds a disk tier to the run's plan cache
 * (DESIGN.md §8), which persists plans across runs.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "baselines/baseline.h"
#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/common_flags.h"
#include "common/logging.h"
#include "common/shutdown.h"
#include "graph/workloads.h"
#include "plan/plan_cache.h"
#include "sched/hybrid_rotation.h"
#include "sched/mad.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

using namespace crophe;

namespace {

/** Record one technique's Figure 11 bars into the stats registry. */
void
recordBars(telemetry::StatsRegistry *reg, const std::string &group,
           const char *label, const sched::SchedStats &stats)
{
    if (reg == nullptr)
        return;
    std::string prefix = "fig11." + group + "." + label;
    reg->scalar(prefix + ".cycles", "end-to-end cycles").set(stats.cycles);
    reg->counter(prefix + ".sramWords", "global-buffer words")
        .set(stats.sramWords);
    reg->counter(prefix + ".dramWords", "off-chip words")
        .set(stats.dramWords);
}

void
breakdown(const char *baseline_name, const char *crophe_name,
          double sram_mb, telemetry::SimTelemetry *telem,
          telemetry::SearchTelemetry *search, plan::PlanCache &cache)
{
    auto baseline = baselines::withSram(
        baselines::designByName(baseline_name), sram_mb);
    auto crophe = baselines::withSram(baselines::designByName(crophe_name),
                                      sram_mb);
    const auto &params = crophe.params;

    std::printf("%s vs CROPHE hw (%s params, %.0f MB SRAM):\n",
                baseline_name, params.name.c_str(), sram_mb);

    auto report = [&](const char *label,
                      const sched::WorkloadResult &r, double base) {
        std::printf("  %-10s %10.3e cycles (%5.2fx)  sram %9.3e  "
                    "dram %9.3e words\n",
                    label, r.stats.cycles, base / r.stats.cycles,
                    static_cast<double>(r.stats.sramWords),
                    static_cast<double>(r.stats.dramWords));
        recordBars(telem != nullptr ? telem->registry : nullptr,
                   baseline_name, label, r.stats);
    };

    // Baseline accelerator with MAD.
    baselines::RunOptions brun;
    brun.planCache = &cache;
    brun.search = search;
    auto base = baselines::runDesign(baseline, "bootstrap", brun);
    report("baseline", base, base.stats.cycles);

    // MAD on the CROPHE homogeneous hardware (Min-KS rotations, per VII-D).
    {
        graph::WorkloadOptions wopt;
        wopt.rotMode = graph::RotMode::MinKs;
        auto w = graph::buildBootstrapping(params, wopt);
        auto r = sched::scheduleWorkloadMad(w, crophe.cfg);
        r.design = "MAD";
        report("MAD", r, base.stats.cycles);
    }

    sched::SchedOptions opt;  // cross-operator dataflow on
    opt.search = search;
    opt.planCache = &cache;
    sched::RotationChoice best_choice;
    auto run_mode = [&](const char *label, bool nttdec, bool hybrot) {
        opt.nttDecomp = nttdec;
        auto choice = sched::chooseRotationScheme("bootstrap", params,
                                                  crophe.cfg, opt, hybrot);
        choice.result.design = label;
        report(label, choice.result, base.stats.cycles);
        return choice;
    };
    run_mode("Base", false, false);
    run_mode("+NTTDec", true, false);
    run_mode("+HybRot", false, true);
    best_choice = run_mode("Both", true, true);

    // Regenerate the winning configuration's breakdown from the
    // cycle-level simulator, feeding the trace/stats telemetry.
    if (telem != nullptr) {
        graph::WorkloadOptions wopt;
        wopt.rotMode = best_choice.mode;
        wopt.rHyb = best_choice.rHyb;
        auto w = graph::buildBootstrapping(params, wopt);
        opt.nttDecomp = true;
        telem->statsPrefix = "sim." + std::string(baseline_name);
        auto sim = sim::simulateWorkload(w, crophe.cfg, opt, telem);
        std::printf("  simulated winner (%s): %.3e cycles\n",
                    best_choice.result.design.c_str(), sim.stats.cycles);
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    cli::FlagParser flags(
        "Figure 11: technique breakdown on bootstrapping.");
    cli::CommonFlags common;
    common.registerInto(flags, cli::CommonFlags::kThreads |
                                   cli::CommonFlags::kStatsOut |
                                   cli::CommonFlags::kTraceOut |
                                   cli::CommonFlags::kPlanCache);
    if (!flags.parse(argc, argv))
        return 1;
    const std::string &trace_out = common.traceOut;
    const std::string &stats_out = common.statsOut;
    installShutdownHandler();

    plan::PlanCache cache(common.planCacheDir);

    telemetry::TraceRecorder recorder;
    telemetry::StatsRegistry registry;
    telemetry::SearchTelemetry search;
    telemetry::SimTelemetry telem;
    if (!trace_out.empty())
        telem.trace = &recorder;
    if (!stats_out.empty())
        telem.registry = &registry;
    bool telemetry_on = telem.trace != nullptr || telem.registry != nullptr;

    // On SIGINT/SIGTERM whatever telemetry exists so far is still flushed
    // as valid JSON, marked truncated.
    auto flush_outputs = [&](bool truncated) {
        if (!stats_out.empty()) {
            search.registerStats(registry);
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
            if (!truncated)
                std::printf("\nwrote %zu stats to %s\n", registry.size(),
                            stats_out.c_str());
        }
        if (!trace_out.empty()) {
            if (truncated)
                recorder.instant("run truncated", 0.0);
            std::ofstream os(trace_out);
            if (!os) {
                std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
                return false;
            }
            recorder.writeJson(os);
            if (!truncated)
                std::printf("wrote %zu trace events to %s\n",
                            recorder.events().size(), trace_out.c_str());
        }
        return true;
    };
    auto bail_out = [&]() {
        std::fprintf(stderr, "\ninterrupted: flushing partial telemetry\n");
        flush_outputs(/*truncated=*/true);
        return kShutdownExitCode;
    };

    setVerbose(false);
    bench::printHeader("Figure 11: technique breakdown, bootstrapping");
    breakdown("ARK+MAD", "CROPHE-64", 64.0,
              telemetry_on ? &telem : nullptr,
              telemetry_on ? &search : nullptr, cache);
    if (shutdownRequested())
        return bail_out();
    std::printf("\n");
    breakdown("SHARP+MAD", "CROPHE-36", 45.0,
              telemetry_on ? &telem : nullptr,
              telemetry_on ? &search : nullptr, cache);
    if (shutdownRequested())
        return bail_out();

    if (!flush_outputs(/*truncated=*/false))
        return 1;
    return 0;
}
