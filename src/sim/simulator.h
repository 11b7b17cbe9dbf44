#ifndef CROPHE_SIM_SIMULATOR_H_
#define CROPHE_SIM_SIMULATOR_H_

/**
 * @file
 * Cycle-level simulator (Section VI): consumes the mapper's traces and
 * books chunk execution on PE groups, the mesh NoC, the banked global
 * buffer, the transpose unit, and the HBM model. Group switching is fully
 * synchronous, as in the hardware, and a spatial group lists every
 * producer before its consumers, so the simulator issues each group's ops
 * once, in that order (DESIGN.md §4).
 */

#include "graph/workloads.h"
#include "sched/cost_model.h"
#include "sched/group.h"
#include "sim/stats.h"

namespace crophe::telemetry {
struct SimTelemetry;
}  // namespace crophe::telemetry

namespace crophe::fault {
class FaultInjector;
}  // namespace crophe::fault

namespace crophe::sim {

/**
 * Simulate one scheduled segment on @p cfg.
 *
 * With @p telem set, per-resource busy spans (PE groups, NoC, SRAM,
 * transpose unit, DRAM channels), group-switch instants and traffic
 * counters are recorded into its trace, and the run's SimStats are
 * accumulated into its registry. Null (the default) records nothing and
 * leaves simulated timing bit-identical.
 *
 * With @p faults set (and its plan non-empty), the DRAM and NoC models
 * suffer the plan's transient faults (DESIGN.md §9); the stats report
 * faultsEnabled plus per-kind counters. Null or an empty plan is
 * bit-identical to a healthy run.
 */
SimStats simulateSchedule(const sched::Schedule &sched,
                          const hw::HwConfig &cfg,
                          const telemetry::SimTelemetry *telem = nullptr,
                          const fault::FaultInjector *faults = nullptr);

/**
 * Schedule and simulate a whole workload: every unique segment is
 * scheduled and simulated once (cold), warm repetitions are scaled by the
 * simulated-to-analytical ratio, and the totals are aggregated with the
 * same cluster model as the scheduler. Each segment becomes one trace
 * process when @p telem is set. @p faults (if non-null) applies to every
 * segment's simulation.
 */
sched::WorkloadResult simulateWorkload(
    const graph::Workload &w, const hw::HwConfig &cfg,
    const sched::SchedOptions &opt,
    const telemetry::SimTelemetry *telem = nullptr,
    const fault::FaultInjector *faults = nullptr);

}  // namespace crophe::sim

#endif  // CROPHE_SIM_SIMULATOR_H_
