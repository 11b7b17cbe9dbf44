#ifndef CROPHE_SCHED_COST_MODEL_H_
#define CROPHE_SCHED_COST_MODEL_H_

/**
 * @file
 * Workload-level cost aggregation (Section V-D, "hardware cost model"),
 * including the CROPHE-p data-parallel cluster model and the resource
 * utilization figures of Table IV.
 */

#include <string>
#include <vector>

#include "graph/workloads.h"
#include "sched/group.h"

namespace crophe::sched {

/** End-to-end result for one workload on one design. */
struct WorkloadResult
{
    std::string workload;
    std::string design;
    u32 clusters = 1;
    SchedStats stats;                 ///< aggregate over all segments × reps
    double seconds = 0.0;             ///< wall time at the config frequency
    std::vector<std::pair<std::string, SchedStats>> perSegment;
    /** True when any segment schedule was deadline-truncated (anytime
     *  greedy fallback rather than the exact search, DESIGN.md §9). */
    bool degraded = false;
    /** Rotation scheme the search settled on ("Hybrid r=4"); empty when
     *  no rotation-scheme search ran (MAD path, plain scheduleWorkload). */
    std::string rotScheme;
    /** Key-switch dataflow the search settled on ("fused"); empty when no
     *  rotation-scheme search ran. */
    std::string ksDataflow;
};

/**
 * Aggregate per-segment schedules into a workload result.
 *
 * With @p clusters > 1 (CROPHE-p), each cluster (scheduled on numPes /
 * clusters) runs a different repetition in data-parallel fashion, and the
 * aux constants (evks) are fetched once per co-running set when
 * @p share_aux is set.
 */
WorkloadResult aggregateWorkload(
    const graph::Workload &w, const hw::HwConfig &cfg,
    const std::vector<Schedule> &segment_schedules, u32 clusters,
    bool share_aux);

/** Fill the utilization fields of @p stats for hardware @p cfg. */
void fillUtilization(SchedStats &stats, const hw::HwConfig &cfg);

}  // namespace crophe::sched

#endif  // CROPHE_SCHED_COST_MODEL_H_
