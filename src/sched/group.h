#ifndef CROPHE_SCHED_GROUP_H_
#define CROPHE_SCHED_GROUP_H_

/**
 * @file
 * The three-level dataflow hierarchy of Section V-A:
 * sequential execution → temporal pipelining/sharing → spatial
 * pipelining/sharing — plus the per-group analysis that fills in
 * compute/memory cost and buffer residency.
 */

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
    /** Data-parallel clusters (CROPHE-p); 1 = whole-chip scheduling. */
    u32 clusters = 1;
    /** Share aux constants (evks) across clusters in CROPHE-p. */
    bool shareAuxAcrossClusters = true;
    /**
     * Branch-and-bound pruning of the DP cover search (DESIGN.md §8). The
     * bound is admissible, so the chosen schedule is bit-identical to the
     * exhaustive search; false forces the exhaustive sweep (tests).
     */
    bool pruneSearch = true;
    /**
     * Bitmask of graph::RotMode values the rotation-scheme search may
     * enumerate (bit = 1 << static_cast<u32>(mode)); default all four
     * (MinKs | Hoisting | Hybrid | TripleHoisted). Only consulted by
     * chooseRotationScheme, but part of optionsDigest() since it shapes
     * which candidate won a cached search.
     */
    u32 rotSchemeMask = 0xF;
    /**
     * Bitmask of graph::KsDataflow values the search may enumerate
     * (bit = 1 << static_cast<u32>(df)); default all three
     * (Fused | OutputStationary | ReorderedModUp). Same digest rationale
     * as rotSchemeMask.
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
 * Order-sensitive digest over the value fields of @p opt (the observer
 * and cache pointers are excluded — they do not affect the schedule).
 * Keys the plan cache together with the graph hash and config digest.
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
    u64 extWords = 0;            ///< external in/out tensor volume
    u64 flops = 0;               ///< total modmuls in the group
    /** Distinct aux keys (evk etc.) this group streams in, with volumes. */
    std::vector<std::pair<std::string, u64>> auxNeeds;
    double cycles = 0.0;         ///< bounding resource time
};

/** Spatial groups sharing the chip back-to-back with resident aux data. */
struct TemporalGroup
{
    std::vector<SpatialGroup> groups;
    u64 residentAuxWords = 0;  ///< aux kept in SRAM across the group
    double cycles = 0.0;
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

/** A complete schedule for one workload segment (or whole workload). */
struct Schedule
{
    /** The scheduled graph (possibly NTT-decomposition-rewritten); all
     *  group op ids refer to this graph. */
    graph::Graph graph;
    std::vector<TemporalGroup> sequence;
    /** First execution: aux constants fetched cold. */
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
