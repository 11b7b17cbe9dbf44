#ifndef CROPHE_SCHED_GROUP_H_
#define CROPHE_SCHED_GROUP_H_

/**
 * @file
 * Schedules of Section V-A's dataflow hierarchy — a sequence of spatial
 * groups, each pipelining and sharing among its operators — plus the
 * per-group analysis that fills in compute/memory cost and buffer
 * residency. The temporal level has no record of its own: the scheduler
 * models it across the whole sequence (handoff streaming in
 * applyBufferSpill, aux pinning in applyAuxCaching).
 */

#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "hw/config.h"
#include "sched/loopnest.h"

namespace crophe::telemetry {
class SearchTelemetry;
}  // namespace crophe::telemetry

namespace crophe::plan {
class PlanCache;
}  // namespace crophe::plan

namespace crophe::sched {

class GroupMemo;

/** Scheduler knobs. */
struct SchedOptions
{
    /** false = MAD-style limited fusion (the baseline dataflow). */
    bool crossOpDataflow = true;
    /** Apply the four-step NTT rewriting of Section V-B. */
    bool nttDecomp = true;
    /** Max ops per spatial group (the paper uses 7-10). */
    u32 maxGroupOps = 10;
    /**
     * Data-parallel clusters (CROPHE-p); 1 = whole-chip scheduling. Read
     * by scheduleWorkload/simulateWorkload, which slice the config per
     * cluster; not part of optionsDigest(), since the sliced config's
     * configDigest already keys what it changes.
     */
    u32 clusters = 1;
    /**
     * Bitmask of graph::RotMode values the rotation-scheme search may
     * enumerate (bit = 1 << static_cast<u32>(mode)); default all four
     * (MinKs | Hoisting | Hybrid | TripleHoisted). Only consulted by
     * chooseRotationScheme, which builds one graph per scheme, so it is
     * not part of optionsDigest(): each scheme's graph searches the same
     * under any mask.
     */
    u32 rotSchemeMask = 0xF;
    /**
     * Bitmask of graph::KsDataflow values the search may enumerate
     * (bit = 1 << static_cast<u32>(df)); default all three
     * (Fused | OutputStationary | ReorderedModUp). Like rotSchemeMask,
     * read only by chooseRotationScheme and not part of optionsDigest().
     */
    u32 ksDataflowMask = 0x7;
    /** Optional search observer: candidate costs and enumerator memo
     *  effectiveness are recorded here (null = no telemetry). */
    telemetry::SearchTelemetry *search = nullptr;
    /**
     * Optional content-addressed schedule cache (DESIGN.md §8). A hit
     * returns a byte-identical schedule without searching; null disables
     * caching. Not part of optionsDigest().
     */
    plan::PlanCache *planCache = nullptr;
    /**
     * Optional shared group-analysis memo. When set, the nttDecomp /
     * rotation-scheme / cluster sweeps share one structural-hash memo
     * instead of rebuilding one per candidate; when null each top-level
     * schedule call creates its own. Not part of optionsDigest().
     */
    GroupMemo *memo = nullptr;
    /**
     * Anytime-search wall-clock budget in seconds per graph search
     * (0 = unlimited, the default). When it expires mid-search the
     * scheduler returns its greedy incumbent — a valid cover, just not
     * the proven optimum — with Schedule::degraded set (DESIGN.md §9).
     * Excluded from optionsDigest(): deadline-truncated schedules never
     * enter the plan cache, so cached plans are always exact and the
     * digest need not distinguish budgets.
     */
    double deadlineSeconds = 0.0;
};

/**
 * Order-sensitive digest over the fields of @p opt that scheduleGraph's
 * search reads: crossOpDataflow, nttDecomp and maxGroupOps. Keys the plan
 * cache together with the graph hash and config digest.
 */
u64 optionsDigest(const SchedOptions &opt);

/** PE allocation for one operator inside a spatial group. */
struct OpAlloc
{
    graph::OpId op = graph::kNoOp;
    u32 pes = 1;      ///< PEs allocated (∝ compute load, Section IV-B)
    u64 chunks = 1;   ///< pipelining granule count (simulation)
};

/** A set of operators co-running on the chip with data forwarding. */
struct SpatialGroup
{
    std::vector<OpAlloc> allocs;
    std::vector<EdgePlan> internalEdges;

    // --- Analysis results -------------------------------------------------
    double computeCycles = 0.0;  ///< pipelined compute bound
    u64 dramWords = 0;           ///< off-chip traffic this group causes
    u64 sramWords = 0;           ///< global-buffer traffic
    u64 nocWords = 0;            ///< inter-PE forwarded words
    u64 bufferWords = 0;         ///< peak global-buffer residency
    u64 flops = 0;               ///< total modmuls in the group
    /** Distinct aux keys (evk etc.) this group streams in, with volumes. */
    std::vector<std::pair<std::string, u64>> auxNeeds;
    double cycles = 0.0;         ///< bounding resource time
};

/** Aggregate statistics of a schedule (drives Table IV and Figure 11). */
struct SchedStats
{
    double cycles = 0.0;
    u64 dramWords = 0;
    u64 auxDramWords = 0;  ///< portion of dramWords that is aux constants
    u64 sramWords = 0;
    u64 nocWords = 0;
    u64 flops = 0;

    double peUtil = 0.0;
    double nocUtil = 0.0;
    double sramBwUtil = 0.0;
    double dramBwUtil = 0.0;

    void accumulate(const SchedStats &other);
};

/**
 * A complete schedule for one workload segment (or whole workload).
 * Copies are cheap: the graph and the groups are shared, not copied, so
 * a plan-cache hit hands out the stored schedule itself (DESIGN.md §8).
 */
struct Schedule
{
    /** The scheduled graph (possibly NTT-decomposition-rewritten); all
     *  group op ids refer to this graph. A search or a plan-cache hit
     *  shares the caller's graph when nttN1 is 0. */
    graph::Graph graph;
    /** The N1 factor the input graph was rewritten with
     *  (rewriteNttDecomposition), or 0 when graph is the input graph. */
    u64 nttN1 = 0;
    /** Spatial groups in execution order; immutable once built, and
     *  shared by every copy of the schedule and by the plan cache's
     *  entry for it. Null only in a default-constructed schedule. */
    std::shared_ptr<const std::vector<SpatialGroup>> groups;
    /** First execution: aux constants fetched cold. Values, not shared:
     *  callers such as simulateWorkload rewrite them per copy. */
    SchedStats stats;
    /** Steady-state repetition: aux that fits stays resident on-chip. */
    SchedStats warmStats;
    /**
     * True when SchedOptions::deadlineSeconds expired and this is the
     * greedy incumbent rather than the exact search result. Degraded
     * schedules are never inserted into the plan cache (and hence never
     * come back from it), so the flag is not serialized.
     */
    bool degraded = false;
};

/**
 * Analyze a candidate spatial group over @p ops (a topological window of
 * @p g). Returns false if the group is infeasible (internal buffering
 * exceeds the global buffer).
 *
 * @param mad true = MAD semantics: no aux dedup across ops and fusion only
 *        across non-orientation-switch element-wise chains.
 */
bool analyzeSpatialGroup(const graph::Graph &g,
                         const std::vector<graph::OpId> &ops,
                         const hw::HwConfig &cfg, bool mad,
                         SpatialGroup &out);

/** Resource-time conversion helpers shared with the cost model. @{ */
double dramCycles(const hw::HwConfig &cfg, u64 words);
double sramCycles(const hw::HwConfig &cfg, u64 words);
double nocCycles(const hw::HwConfig &cfg, u64 words);
/** @} */

}  // namespace crophe::sched

#endif  // CROPHE_SCHED_GROUP_H_
