#include "baselines/baseline.h"

#include <chrono>

#include "common/error.h"
#include "common/logging.h"
#include "sched/enumerator.h"
#include "sched/hybrid_rotation.h"
#include "sched/mad.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "telemetry/search_telemetry.h"

namespace crophe::baselines {

std::vector<DesignSpec>
designs64()
{
    std::vector<DesignSpec> designs;
    designs.push_back({"BTS+MAD", hw::configBts(), graph::paramsBts(),
                       true, false, false, false});
    designs.push_back({"ARK+MAD", hw::configArk(), graph::paramsArk(),
                       true, false, false, false});
    designs.push_back({"CROPHE-hw+MAD", hw::configCrophe64(),
                       graph::paramsArk(), true, false, false, false});
    designs.push_back({"CROPHE-64", hw::configCrophe64(),
                       graph::paramsArk(), false, false, true, true});
    designs.push_back({"CROPHE-p-64", hw::configCrophe64(),
                       graph::paramsArk(), false, true, true, true});
    return designs;
}

std::vector<DesignSpec>
designs36()
{
    std::vector<DesignSpec> designs;
    designs.push_back({"CL+MAD", hw::configClPlus(),
                       graph::paramsCraterLake(), true, false, false,
                       false});
    designs.push_back({"SHARP+MAD", hw::configSharp(), graph::paramsSharp(),
                       true, false, false, false});
    designs.push_back({"CROPHE-hw+MAD", hw::configCrophe36(),
                       graph::paramsSharp(), true, false, false, false});
    designs.push_back({"CROPHE-36", hw::configCrophe36(),
                       graph::paramsSharp(), false, false, true, true});
    designs.push_back({"CROPHE-p-36", hw::configCrophe36(),
                       graph::paramsSharp(), false, true, true, true});
    return designs;
}

DesignSpec
designByName(const std::string &name)
{
    for (const auto &d : designs64())
        if (d.name == name)
            return d;
    for (const auto &d : designs36())
        if (d.name == name)
            return d;
    // User input (CLI/config lookup), not an invariant: recoverable.
    throw RecoverableError("unknown design: " + name);
}

namespace {

sched::WorkloadResult
runDesignImpl(const DesignSpec &design, const std::string &workload,
              const RunOptions &run, sched::GroupMemo &memo)
{
    if (design.mad) {
        graph::Workload w = graph::buildWorkload(
            workload, design.params, sched::madWorkloadOptions());
        sched::SchedOptions opt = sched::madOptions();
        opt.memo = &memo;
        opt.planCache = run.planCache;
        opt.search = run.search;
        opt.deadlineSeconds = run.deadlineSeconds;
        sched::WorkloadResult res =
            run.simulate ? sim::simulateWorkload(w, design.cfg, opt,
                                                 nullptr, run.faults)
                         : sched::scheduleWorkload(w, design.cfg, opt);
        res.design = design.name;
        return res;
    }

    sched::SchedOptions opt;
    opt.crossOpDataflow = true;
    opt.nttDecomp = design.nttDecomp;
    opt.memo = &memo;
    opt.planCache = run.planCache;
    opt.search = run.search;
    opt.deadlineSeconds = run.deadlineSeconds;
    opt.rotSchemeMask = run.rotSchemeMask;
    opt.ksDataflowMask = run.ksDataflowMask;

    // Rotation scheme × ks dataflow search happens at graph level
    // (Section V-D, DESIGN.md §15).
    auto choice = sched::chooseRotationScheme(
        workload, design.params, design.cfg, opt, design.hybridRot);

    graph::WorkloadOptions wopt;
    wopt.rotMode = choice.mode;
    wopt.rHyb = choice.rHyb;
    wopt.ksDataflow = choice.ksDataflow;
    graph::Workload w = graph::buildWorkload(workload, design.params, wopt);

    sched::WorkloadResult res;
    if (design.dataParallel) {
        // Pick the best cluster count, then (optionally) simulate it.
        auto best = sched::scheduleWorkloadAutoClusters(w, design.cfg, opt);
        if (run.simulate) {
            opt.clusters = best.clusters;
            res = sim::simulateWorkload(w, design.cfg, opt, nullptr,
                                        run.faults);
        } else {
            res = std::move(best);
        }
    } else {
        opt.clusters = 1;
        res = run.simulate ? sim::simulateWorkload(w, design.cfg, opt,
                                                   nullptr, run.faults)
                           : sched::scheduleWorkload(w, design.cfg, opt);
    }
    res.design = design.name;
    res.rotScheme = graph::rotModeName(choice.mode);
    if (choice.mode == graph::RotMode::Hybrid)
        res.rotScheme += " r=" + std::to_string(choice.rHyb);
    res.ksDataflow = graph::ksDataflowName(choice.ksDataflow);
    return res;
}

}  // namespace

sched::WorkloadResult
runDesign(const DesignSpec &design, const std::string &workload,
          const RunOptions &run)
{
    // One memo spans the rotation/cluster sweeps and the final schedule:
    // a design's candidate graphs are riddled with repeated subgraphs.
    sched::GroupMemo memo;
    auto start = std::chrono::steady_clock::now();
    sched::WorkloadResult res = runDesignImpl(design, workload, run, memo);
    if (run.search != nullptr) {
        std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        run.search->addDesignSeconds(elapsed.count());
    }
    return res;
}

sched::WorkloadResult
runDesign(const DesignSpec &design, const std::string &workload,
          bool simulate)
{
    RunOptions run;
    run.simulate = simulate;
    return runDesign(design, workload, run);
}

DesignSpec
withSram(const DesignSpec &design, double sram_mb)
{
    DesignSpec d = design;
    d.cfg = hw::withSramMB(d.cfg, sram_mb);
    return d;
}

}  // namespace crophe::baselines
