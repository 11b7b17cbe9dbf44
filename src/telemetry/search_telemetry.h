#ifndef CROPHE_TELEMETRY_SEARCH_TELEMETRY_H_
#define CROPHE_TELEMETRY_SEARCH_TELEMETRY_H_

/**
 * @file
 * Scheduler search observability: every candidate schedule a graph search
 * evaluates (the base graph and each NTT-decomposition factor) is
 * counted, together with the group enumerator's memoization
 * effectiveness (unique subgraphs analyzed vs memo hits — the paper's
 * redundant-subgraph merging) and the plan-cache lookups. Workload-level
 * choices (rotation scheme, ks dataflow, cluster count) are not
 * candidates here; the rotation search records only its winner.
 *
 * Observers are attached via SchedOptions::search; a null pointer keeps
 * the scheduler free of any telemetry work.
 */

#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace crophe::telemetry {

class StatsRegistry;

/** The winning (rotation scheme, ks dataflow) of one workload's search. */
struct SearchChoice
{
    std::string workload;  ///< e.g. "bootstrap"
    std::string rotLabel;  ///< e.g. "hybrid r=4"
    u32 rotIndex;          ///< static_cast<u32>(graph::RotMode)
    std::string ksLabel;   ///< e.g. "fused"
    u32 ksIndex;           ///< static_cast<u32>(graph::KsDataflow)
};

/**
 * Accumulates scheduler search progress across one or more searches.
 *
 * Thread-safe: the scheduler evaluates candidate sweeps in parallel, so
 * recordCandidate/addEnumeration may race. Every read is independent of
 * the arrival order (counts, sums, choices() sorted), so the dump is
 * byte-identical for any thread count.
 */
class SearchTelemetry
{
  public:
    /** Record one evaluated candidate graph schedule. */
    void recordCandidate();

    /** Record the variant the rotation/ks-dataflow search settled on. */
    void recordChoice(const std::string &workload,
                      const std::string &rot_label, u32 rot_index,
                      const std::string &ks_label, u32 ks_index);

    /** Fold in one GroupEnumerator's counters after a search. */
    void addEnumeration(u64 analyzed, u64 memo_hits);

    /** Record one plan-cache lookup at scheduleGraph level. */
    void addPlanLookup(bool hit);

    /** Record one graph search truncated by its anytime deadline. */
    void addDeadlineHit();

    u64 candidates() const;
    u64 analyzed() const;
    u64 memoHits() const;
    /**
     * Always 0: the cover search prunes nothing since its branch-and-bound
     * was removed. Kept only for perfbench's sched.pruned_windows metric.
     */
    u64 prunedWindows() const { return 0; }
    u64 planHits() const;
    u64 planMisses() const;
    u64 deadlineHits() const;

    /** Recorded winners, sorted by (workload, rot, ks) for determinism. */
    std::vector<SearchChoice> choices() const;

    /** Snapshot the counters into @p reg under @p prefix (idempotent). */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix = "sched") const;

  private:
    mutable std::mutex mu_;
    u64 candidates_ = 0;
    std::vector<SearchChoice> choices_;  ///< raw order
    u64 analyzed_ = 0;
    u64 memoHits_ = 0;
    u64 planHits_ = 0;
    u64 planMisses_ = 0;
    u64 deadlineHits_ = 0;
};

}  // namespace crophe::telemetry

#endif  // CROPHE_TELEMETRY_SEARCH_TELEMETRY_H_
