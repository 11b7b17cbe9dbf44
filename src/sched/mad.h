#ifndef CROPHE_SCHED_MAD_H_
#define CROPHE_SCHED_MAD_H_

/**
 * @file
 * MAD scheduling [2] — the state-of-the-art baseline dataflow applied to
 * every design in the evaluation (Section VI).
 *
 * MAD fuses short element-wise chains (its O(1)/O(β) caching), uses
 * Hoisting for BSGS rotations, but has no systematic cross-operator
 * grouping, no aux-constant sharing across operators, and must break
 * pipelines at every orientation switch (no NTT decomposition).
 */

#include "graph/workloads.h"
#include "sched/cost_model.h"
#include "sched/group.h"

namespace crophe::sched {

/** Scheduler options that realize MAD semantics. */
SchedOptions madOptions();

/** Workload options MAD uses at graph level (hoisted rotations). */
graph::WorkloadOptions madWorkloadOptions();

/** Schedule a workload with MAD. */
WorkloadResult scheduleWorkloadMad(const graph::Workload &w,
                                   const hw::HwConfig &cfg);

}  // namespace crophe::sched

#endif  // CROPHE_SCHED_MAD_H_
