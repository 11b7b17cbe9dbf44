/**
 * @file
 * Drive the cycle-level simulator: schedule ResNet-20 on CROPHE-36, run
 * every unique segment through the event-driven model, and report
 * cycles, traffic and resource utilization (the Table IV view).
 *
 * With --trace-out FILE the per-segment simulations are recorded as
 * Chrome trace-event JSON (open in https://ui.perfetto.dev): one process
 * per segment with one track per PE group, the NoC, the SRAM bank group,
 * the transpose unit and each busy DRAM channel. With --stats-out FILE
 * the telemetry registry (sim.* totals matching SimStats, sched.search.*
 * and sched.enum.* from the scheduler) is dumped as nested JSON; the
 * text form goes to stdout. --plan-cache DIR (or $CROPHE_PLAN_CACHE)
 * adds a disk tier to the run's plan cache (DESIGN.md §8), which
 * persists plans across runs.
 *
 * With --fault-plan SPEC (or $CROPHE_FAULT_PLAN) the run executes under
 * the seeded fault plan (DESIGN.md §9): transient DRAM/NoC faults are
 * injected into the simulation, structural faults degrade the hardware
 * configuration before scheduling, and the report ends with the
 * degradation ratio against the healthy run. --deadline SEC arms the
 * anytime scheduler budget. SIGINT/SIGTERM flush partial telemetry
 * (marked truncated) and exit 130.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "baselines/baseline.h"
#include "common/cli.h"
#include "common/common_flags.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/shutdown.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "graph/workloads.h"
#include "plan/plan_cache.h"
#include "pod/pod.h"
#include "sched/hybrid_rotation.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

using namespace crophe;

namespace {

int
run(int argc, char **argv)
{
    std::string fault_spec = fault::FaultPlan::specFromEnv();
    double deadline = 0.0;
    u32 chips = 1;
    double link_gbs = 600.0;
    double link_latency = 500.0;
    std::string rot_schemes = "all";
    std::string ks_dataflows = "all";
    cli::FlagParser flags(
        "Cycle-level simulation of ResNet-20 on CROPHE-36.");
    cli::CommonFlags common;
    common.registerInto(flags, cli::CommonFlags::kThreads |
                                   cli::CommonFlags::kStatsOut |
                                   cli::CommonFlags::kTraceOut |
                                   cli::CommonFlags::kPlanCache);
    flags.addString("--fault-plan", &fault_spec,
                    "fault-injection spec, e.g. seed=7,dram-err=1e-3 "
                    "(default $CROPHE_FAULT_PLAN)",
                    "SPEC");
    flags.addDouble("--deadline", &deadline,
                    "anytime scheduling budget per graph search in seconds "
                    "(0 = exact search)");
    flags.addUint("--chips", &chips,
                  "shard the workload across a pod of this many chips "
                  "(1 = single chip)");
    flags.addDouble("--link-gbs", &link_gbs,
                    "pod ring-link bandwidth per direction (GB/s)");
    flags.addDouble("--link-latency", &link_latency,
                    "pod ring-link latency per hop (chip cycles)");
    flags.addString("--rot-schemes", &rot_schemes,
                    "rotation schemes the end-to-end search may pick "
                    "(minks|hoisting|hybrid|triple|all, comma-separated)",
                    "LIST");
    flags.addString("--ks-dataflows", &ks_dataflows,
                    "key-switch dataflows the search may pick "
                    "(fused|ostat|reordup|all, comma-separated)", "LIST");
    if (!flags.parse(argc, argv))
        return 1;
    const std::string &trace_out = common.traceOut;
    const std::string &stats_out = common.statsOut;
    u32 rot_mask = 0xF;
    u32 ks_mask = 0x7;
    try {
        cli::requirePositive("--chips", chips);
        cli::requirePositive("--link-gbs", link_gbs);
        cli::requireNonNegative("--link-latency", link_latency);
        cli::requireNonNegative("--deadline", deadline);
        rot_mask = sched::parseRotSchemes(rot_schemes);
        ks_mask = sched::parseKsDataflows(ks_dataflows);
    } catch (const RecoverableError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        flags.printUsage(argv[0], std::cerr);
        return 1;
    }

    installShutdownHandler();

    plan::PlanCache cache(common.planCacheDir);

    // Parsing against the pod size rejects plans that would kill every
    // chip, naming the offending token (DESIGN.md §14).
    fault::FaultPlan fplan = fault::FaultPlan::parse(fault_spec, chips);
    fault::FaultInjector injector(fplan);
    const bool faulty = !fplan.empty();
    const fault::FaultInjector *faults = faulty ? &injector : nullptr;

    setVerbose(false);
    auto design = baselines::designByName("CROPHE-36");
    std::printf("simulating ResNet-20 on %s (%u PEs x %u lanes, %.0f MB)\n",
                design.cfg.name.c_str(), design.cfg.numPes,
                design.cfg.lanes, design.cfg.sramMB);

    // Structural faults shrink the hardware before any scheduling; the
    // degraded config has a distinct digest, so the plan cache keeps
    // healthy and degraded schedules apart.
    auto run_design = design;
    if (fplan.degradesHardware()) {
        run_design.cfg = fplan.degradedConfig(design.cfg);
        run_design.name += "+degraded";
    }
    if (faulty)
        std::printf("fault plan: %s\n  degraded hardware: %s "
                    "(%u PEs x %u lanes, %.0f MB)\n",
                    fplan.toString().c_str(), run_design.cfg.name.c_str(),
                    run_design.cfg.numPes, run_design.cfg.lanes,
                    run_design.cfg.sramMB);

    telemetry::TraceRecorder recorder;
    telemetry::StatsRegistry registry;
    telemetry::SearchTelemetry search;
    telemetry::SimTelemetry telem;
    if (!trace_out.empty())
        telem.trace = &recorder;
    if (!stats_out.empty())
        telem.registry = &registry;
    bool telemetry_on = telem.trace != nullptr || telem.registry != nullptr;

    // Flush whatever telemetry exists so far; on a signal the outputs
    // stay valid JSON, just marked truncated.
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
            if (!truncated) {
                std::printf("\ntelemetry registry (%zu stats, JSON in "
                            "%s):\n",
                            registry.size(), stats_out.c_str());
                registry.dumpText(std::cout);
            }
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
                std::printf("\nwrote %zu trace events to %s "
                            "(load in ui.perfetto.dev)\n",
                            recorder.events().size(), trace_out.c_str());
        }
        return true;
    };
    auto bail_out = [&]() {
        std::fprintf(stderr,
                     "\ninterrupted: flushing partial telemetry\n");
        flush_outputs(/*truncated=*/true);
        return kShutdownExitCode;
    };

    // Per-segment cycle-level simulation detail.
    graph::WorkloadOptions wopt;
    wopt.rotMode = graph::RotMode::Hybrid;
    wopt.rHyb = 4;
    auto w = graph::buildResNet20(run_design.params, wopt);
    sched::SchedOptions opt;
    opt.planCache = &cache;
    opt.deadlineSeconds = deadline;
    if (telemetry_on)
        opt.search = &search;
    std::printf("\n%-16s %6s %12s %12s %10s\n", "segment", "reps",
                "sim cycles", "events", "row hit%");
    for (const auto &seg : w.segments) {
        if (shutdownRequested())
            return bail_out();
        if (telem.trace != nullptr)
            telem.trace->beginProcess(seg.name);
        auto sched = sched::scheduleGraph(seg.graph, run_design.cfg, opt);
        auto sim = sim::simulateSchedule(sched, run_design.cfg,
                                         telemetry_on ? &telem : nullptr,
                                         faults);
        std::printf("%-16s %6llu %12.3e %12llu %9.1f%%\n",
                    seg.name.c_str(),
                    static_cast<unsigned long long>(seg.repetitions),
                    sim.cycles,
                    static_cast<unsigned long long>(sim.events),
                    100.0 * sim.dramRowHitRate());
        if (faulty && sim.faultsEnabled)
            std::printf("  faults: ecc=%llu retried=%llu (%llu retries) "
                        "stalled=%llu reroutes=%llu%s\n",
                        static_cast<unsigned long long>(sim.faultDramEcc),
                        static_cast<unsigned long long>(
                            sim.faultDramRetried),
                        static_cast<unsigned long long>(
                            sim.faultDramRetries),
                        static_cast<unsigned long long>(
                            sim.faultDramStalls),
                        static_cast<unsigned long long>(
                            sim.faultNocReroutes),
                        sched.degraded ? " [schedule: anytime fallback]"
                                       : "");
    }
    if (shutdownRequested())
        return bail_out();

    // End-to-end, with the rotation-scheme × ks-dataflow search.
    baselines::RunOptions run;
    run.simulate = true;
    run.planCache = &cache;
    run.faults = faults;
    run.deadlineSeconds = deadline;
    run.rotSchemeMask = rot_mask;
    run.ksDataflowMask = ks_mask;
    if (telemetry_on)
        run.search = &search;
    auto result = baselines::runDesign(run_design, "resnet20", run);
    std::printf("\nend-to-end (simulated): %.3e cycles = %.3f ms%s\n",
                result.stats.cycles, result.seconds * 1e3,
                result.degraded ? "  [anytime: deadline hit]" : "");
    std::printf("utilization: PE %.1f%%  NoC %.1f%%  SRAM b/w %.1f%%  "
                "DRAM b/w %.1f%%\n",
                100 * result.stats.peUtil, 100 * result.stats.nocUtil,
                100 * result.stats.sramBwUtil,
                100 * result.stats.dramBwUtil);

    if (chips > 1) {
        if (shutdownRequested())
            return bail_out();
        pod::PodConfig podCfg;
        podCfg.chips = chips;
        podCfg.linkGBs = link_gbs;
        podCfg.linkLatencyCycles = link_latency;
        podCfg.deadChips = fplan.deadChips;
        auto podRes = pod::schedulePodWorkload(
            w, run_design.cfg, podCfg, opt,
            !stats_out.empty() ? &registry : nullptr,
            !trace_out.empty() ? &recorder : nullptr);
        std::printf("\npod: %u chips (%u alive), ring links %.0f GB/s, "
                    "hop latency %.0f cycles\n",
                    chips, podCfg.aliveChips(), link_gbs, link_latency);
        std::printf("%-16s %6s %7s %12s %14s %6s\n", "segment", "reps",
                    "stages", "pipeline cyc", "interchip wd", "moves");
        for (const auto &sr : podRes.perSegment)
            std::printf("%-16s %6llu %7u %12.3e %14llu %6u%s\n",
                        sr.name.c_str(),
                        static_cast<unsigned long long>(sr.repetitions),
                        sr.stages, sr.cycles,
                        static_cast<unsigned long long>(sr.interchipWords),
                        sr.partitionMoves,
                        sr.sramOverflow ? " [sram overflow]" : "");
        // The 1-chip reference uses the same analytic pipeline model, so
        // the ratio isolates the pod's sharding gain.
        pod::PodConfig solo;
        auto soloRes =
            pod::schedulePodWorkload(w, run_design.cfg, solo, opt);
        std::printf("pod end-to-end: %.3f ms (1 chip: %.3f ms, speedup "
                    "%.2fx), %llu interchip words in %llu transfers\n",
                    podRes.seconds * 1e3, soloRes.seconds * 1e3,
                    soloRes.seconds / podRes.seconds,
                    static_cast<unsigned long long>(podRes.interchipWords),
                    static_cast<unsigned long long>(podRes.transfers));
    }

    if (faulty) {
        if (shutdownRequested())
            return bail_out();
        // The healthy twin quantifies the plan's damage. It must not see
        // the injector or the degraded config (and a deadline would make
        // the baseline itself approximate, so it runs exact).
        baselines::RunOptions healthy_run;
        healthy_run.simulate = true;
        healthy_run.planCache = &cache;
        if (telemetry_on)
            healthy_run.search = &search;
        auto healthy = baselines::runDesign(design, "resnet20",
                                            healthy_run);
        double ratio = fault::degradationRatio(result.stats.cycles,
                                               healthy.stats.cycles);
        std::printf("healthy twin: %.3e cycles = %.3f ms\n",
                    healthy.stats.cycles, healthy.seconds * 1e3);
        std::printf("degradation ratio (faulty / healthy): %.3fx\n", ratio);
    }

    if (!flush_outputs(/*truncated=*/false))
        return 1;
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const RecoverableError &e) {
        // User-input problems (bad flag values, impossible fault plans)
        // are reported, not aborted on.
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
