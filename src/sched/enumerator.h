#ifndef CROPHE_SCHED_ENUMERATOR_H_
#define CROPHE_SCHED_ENUMERATOR_H_

/**
 * @file
 * Bottom-up spatial-group candidate enumeration (Section V-D).
 *
 * Candidates are contiguous windows of the topological order, up to the
 * configured maximum size. Analysis results are memoized by a structural
 * key — per-op shape digests plus the window-relative edge structure —
 * so that the many isomorphic subgraphs of FHE workloads (every
 * KeySwitch looks alike) are each analyzed only once — the paper's
 * redundant-subgraph merging.
 *
 * The memo is SHARED across enumerators (the nttDecomp and rotation
 * sweeps schedule near-identical graphs): GroupMemo is a
 * thread-safe store keyed by a context-extended structural hash. The
 * extension folds in each window op's external-producer volumes (the only
 * out-of-window data analyzeSpatialGroup reads) plus the hardware digest
 * and MAD flag, making the memo value a pure function of its key — so
 * concurrent insert races are benign and sharing is deterministic.
 *
 * Each analysis is stored once, in canonical form: op ids in allocs and
 * internalEdges are positions within the window. Enumerators hand out
 * pointers into the store; only the windows a cover keeps are rebound to
 * op ids (GroupEnumerator::group).
 */

#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sched/group.h"

namespace crophe::sched {

/** Thread-safe canonical-group store shared across enumerators. */
class GroupMemo
{
  public:
    /** A canonical analysis; nullopt = infeasible window. */
    using Entry = std::optional<SpatialGroup>;

    GroupMemo() = default;
    GroupMemo(const GroupMemo &) = delete;
    GroupMemo &operator=(const GroupMemo &) = delete;

    /**
     * The stored entry for @p key, or nullptr when absent. Entries are
     * never changed or erased and unordered_map nodes never move, so the
     * pointer stays valid, and safe to read unlocked, for the memo's life.
     */
    const Entry *find(u64 key) const;

    /**
     * Insert-if-absent; returns the stored entry and whether this call
     * created it (an "analyzed" event). false means an equal entry
     * already existed — the caller raced another analysis of the same key
     * and is counted as a memo hit, keeping analyzed/hit totals
     * deterministic for any thread count (analyzed sums to the number of
     * unique keys).
     */
    std::pair<const Entry *, bool> insert(u64 key, Entry value);

  private:
    mutable std::mutex mu_;
    std::unordered_map<u64, Entry> map_;
};

/** Memoizing candidate factory over one graph. */
class GroupEnumerator
{
  public:
    GroupEnumerator(const graph::Graph &g, hw::HwConfig cfg, bool mad,
                    u32 max_ops, GroupMemo &memo);

    const std::vector<graph::OpId> &topo() const { return topo_; }
    u32 maxOps() const { return maxOps_; }

    /**
     * Canonical analyzed group for topo window [begin, begin+len): its op
     * ids are positions within the window. nullptr when the window
     * exceeds the graph or is infeasible.
     */
    const SpatialGroup *window(u32 begin, u32 len);

    /** The feasible window [begin, begin+len)'s group with its op ids. */
    SpatialGroup group(u32 begin, u32 len);

    /** Unique subgraph analyses performed (memoization effectiveness). */
    u64 analyzedCount() const { return analyzed_; }
    u64 memoHits() const { return hits_; }

  private:
    u64 windowKey(u32 begin, u32 len) const;

    const graph::Graph *g_;
    hw::HwConfig cfg_;
    bool mad_;
    u32 maxOps_;
    std::vector<graph::OpId> topo_;
    std::vector<u32> pos_;  ///< op id -> topo position
    std::vector<u64> shape_;  ///< topo position -> digest of the op's shape
    u64 cfgKey_;  ///< configDigest ⊕ mad, folded into every memo key
    GroupMemo &memo_;
    /** Memo entry of window (begin, len) at begin*maxOps+len-1; null
     *  until the window is first requested. */
    std::vector<const GroupMemo::Entry *> byWindow_;
    u64 analyzed_ = 0;
    u64 hits_ = 0;
};

}  // namespace crophe::sched

#endif  // CROPHE_SCHED_ENUMERATOR_H_
