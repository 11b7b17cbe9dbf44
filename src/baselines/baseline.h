#ifndef CROPHE_BASELINES_BASELINE_H_
#define CROPHE_BASELINES_BASELINE_H_

/**
 * @file
 * The design points of the evaluation (Section VII): each baseline
 * accelerator re-implemented on the shared scheduling/simulation
 * substrate with MAD dataflow, plus the CROPHE variants. This is the
 * registry the benchmark harnesses iterate over.
 */

#include <string>
#include <vector>

#include "graph/params.h"
#include "graph/workloads.h"
#include "hw/config.h"
#include "sched/cost_model.h"

namespace crophe::plan {
class PlanCache;
}  // namespace crophe::plan

namespace crophe::telemetry {
class SearchTelemetry;
}  // namespace crophe::telemetry

namespace crophe::fault {
class FaultInjector;
}  // namespace crophe::fault

namespace crophe::baselines {

/** One evaluated design point. */
struct DesignSpec
{
    std::string name;        ///< display name, e.g. "ARK+MAD"
    hw::HwConfig cfg;
    graph::FheParams params; ///< Table III set used with this design
    bool mad = false;        ///< MAD scheduling instead of CROPHE
    bool dataParallel = false;  ///< CROPHE-p cluster partitioning
    bool nttDecomp = true;   ///< CROPHE NTT-decomposition optimization
    bool hybridRot = true;   ///< CROPHE hybrid-rotation optimization
};

/** 64-bit comparison group (vs BTS and ARK), Figure 9 top. */
std::vector<DesignSpec> designs64();

/** 36-bit comparison group (vs CL+ and SHARP), Figure 9 bottom. */
std::vector<DesignSpec> designs36();

/** Build the specific design by name (see designs64/designs36). */
DesignSpec designByName(const std::string &name);

/** Harness-level knobs for runDesign. */
struct RunOptions
{
    /** Cycle-level simulation of every unique segment (slower). */
    bool simulate = false;
    /** Optional content-addressed schedule cache (DESIGN.md §8). */
    plan::PlanCache *planCache = nullptr;
    /** Optional search observer (SchedOptions::search). */
    telemetry::SearchTelemetry *search = nullptr;
    /** Optional transient-fault injector for the simulation phase
     *  (DESIGN.md §9); structural faults degrade cfg before the call. */
    const fault::FaultInjector *faults = nullptr;
    /** Anytime budget per graph search (SchedOptions::deadlineSeconds). */
    double deadlineSeconds = 0.0;
    /** Rotation-scheme filter (SchedOptions::rotSchemeMask); CLI
     *  --rot-schemes via sched::parseRotSchemes. Default: all four. */
    u32 rotSchemeMask = 0xF;
    /** Key-switch dataflow filter (SchedOptions::ksDataflowMask); CLI
     *  --ks-dataflows via sched::parseKsDataflows. Default: all three. */
    u32 ksDataflowMask = 0x7;
};

/**
 * Run @p workload on @p design end-to-end: graph generation (with the
 * design's rotation scheme), scheduling, and — when run.simulate is set —
 * cycle-level simulation of every unique segment. All schedule searches
 * of the run share one group-analysis memo.
 */
sched::WorkloadResult runDesign(const DesignSpec &design,
                                const std::string &workload,
                                const RunOptions &run = {});

/** Copy of @p design with the global buffer resized (Figure 10 sweeps). */
DesignSpec withSram(const DesignSpec &design, double sram_mb);

}  // namespace crophe::baselines

#endif  // CROPHE_BASELINES_BASELINE_H_
