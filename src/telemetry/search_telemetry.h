#ifndef CROPHE_TELEMETRY_SEARCH_TELEMETRY_H_
#define CROPHE_TELEMETRY_SEARCH_TELEMETRY_H_

/**
 * @file
 * Scheduler search observability: every candidate schedule the search
 * evaluates (base dataflow, NTT-decomposition factors, rotation schemes,
 * cluster counts) is recorded with its cost, yielding a best-cost-so-far
 * curve, together with the group enumerator's memoization effectiveness
 * (unique subgraphs analyzed vs memo hits — the paper's
 * redundant-subgraph merging).
 *
 * Observers are attached via SchedOptions::search; a null pointer keeps
 * the scheduler free of any telemetry work.
 */

#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace crophe::telemetry {

class StatsRegistry;

/** One evaluated candidate in the schedule search. */
struct SearchSample
{
    u64 step;           ///< 0-based evaluation order
    std::string label;  ///< e.g. "bootstrap/nttdec n1=64"
    double cost;        ///< candidate cycles
    double bestSoFar;   ///< min cost up to and including this step
};

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
 * recordCandidate/addEnumeration may race. Samples are stored raw and
 * every read (curve(), writeCurveJson(), registerStats()) presents the
 * canonical view — samples sorted by (label, cost) with step and
 * best-so-far recomputed — so the dump is byte-identical for any thread
 * count and arrival order.
 */
class SearchTelemetry
{
  public:
    /** Record one evaluated candidate schedule. */
    void recordCandidate(const std::string &label, double cost);

    /** Record the variant the rotation/ks-dataflow search settled on. */
    void recordChoice(const std::string &workload,
                      const std::string &rot_label, u32 rot_index,
                      const std::string &ks_label, u32 ks_index);

    /** Fold in one GroupEnumerator's counters after a search. */
    void addEnumeration(u64 analyzed, u64 memo_hits);

    /** Fold in one DP cover's branch-and-bound pruned-window count. */
    void addPruning(u64 windows);

    /** Record one plan-cache lookup at scheduleGraph level. */
    void addPlanLookup(bool hit);

    /** Record one graph search truncated by its anytime deadline. */
    void addDeadlineHit();

    /**
     * Add one design run's elapsed seconds (its search, plus simulation
     * under --simulate). Concurrent runs each add their own, so the sum
     * can exceed the wall time of the whole harness.
     */
    void addDesignSeconds(double seconds);

    u64 candidates() const;
    u64 analyzed() const;
    u64 memoHits() const;
    u64 prunedWindows() const;
    u64 planHits() const;
    u64 planMisses() const;
    u64 deadlineHits() const;
    double designSeconds() const;
    /** Fraction of candidate-group lookups served from the memo. */
    double memoHitRate() const;
    double bestCost() const;
    /** Canonical (label-sorted) best-cost curve; see class comment. */
    std::vector<SearchSample> curve() const;

    /** Recorded winners, sorted by (workload, rot, ks) for determinism. */
    std::vector<SearchChoice> choices() const;

    /** Snapshot the counters into @p reg under @p prefix (idempotent). */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix = "sched") const;

    /** Write the best-cost curve as a JSON array of samples. */
    void writeCurveJson(std::ostream &os) const;

  private:
    mutable std::mutex mu_;
    std::vector<std::pair<std::string, double>> samples_;  ///< raw order
    std::vector<SearchChoice> choices_;                    ///< raw order
    u64 analyzed_ = 0;
    u64 memoHits_ = 0;
    u64 prunedWindows_ = 0;
    u64 planHits_ = 0;
    u64 planMisses_ = 0;
    u64 deadlineHits_ = 0;
    double designSeconds_ = 0.0;
};

}  // namespace crophe::telemetry

#endif  // CROPHE_TELEMETRY_SEARCH_TELEMETRY_H_
