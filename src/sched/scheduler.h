#ifndef CROPHE_SCHED_SCHEDULER_H_
#define CROPHE_SCHED_SCHEDULER_H_

/**
 * @file
 * The CROPHE scheduler (Section V-D): bottom-up composition of spatial
 * groups via dynamic programming over the topological order, temporal
 * handoff streaming and on-chip aux residency across the whole group
 * sequence, NTT-decomposition choice, and the CROPHE-p data-parallel
 * cluster decision.
 */

#include "graph/workloads.h"
#include "sched/cost_model.h"
#include "sched/group.h"

namespace crophe::sched {

/**
 * Schedule one graph (a workload segment) on @p cfg.
 *
 * When opt.nttDecomp is set, every candidate N1 factor of the NTT
 * decomposition is tried (including no decomposition) and the cheapest
 * schedule wins.
 *
 * When opt.planCache is set, the whole search is keyed by (graph digest,
 * hardware digest, options digest): a hit returns the previously found
 * schedule byte-for-byte; a miss runs the search and stores the result
 * (DESIGN.md §8).
 */
Schedule scheduleGraph(const graph::Graph &g, const hw::HwConfig &cfg,
                       const SchedOptions &opt);

/**
 * The chip slice one CROPHE-p cluster is scheduled on: PEs, mesh rows,
 * buffer and DRAM bandwidth divided @p clusters ways (intermediates use
 * a proportional buffer share; the aux residency is chip-wide). @p cfg
 * itself when clusters <= 1.
 */
hw::HwConfig clusterConfig(const hw::HwConfig &cfg, u32 clusters);

/**
 * Schedule a full workload: each unique segment once (redundancy
 * merging), then aggregate over repetitions. With opt.clusters > 1 the
 * segments are scheduled on a cluster-sized slice of the chip and run
 * data-parallel (CROPHE-p).
 */
WorkloadResult scheduleWorkload(const graph::Workload &w,
                                const hw::HwConfig &cfg,
                                const SchedOptions &opt);

/**
 * CROPHE-p: try cluster counts {1, 2, 4} and return the fastest result
 * (the scheduler "automatically determines" the partitioning,
 * Section VII-A).
 */
WorkloadResult scheduleWorkloadAutoClusters(const graph::Workload &w,
                                            const hw::HwConfig &cfg,
                                            const SchedOptions &opt);

}  // namespace crophe::sched

#endif  // CROPHE_SCHED_SCHEDULER_H_
