#ifndef CROPHE_PLAN_PLAN_CACHE_H_
#define CROPHE_PLAN_PLAN_CACHE_H_

/**
 * @file
 * Content-addressed schedule cache (DESIGN.md §8).
 *
 * Schedules are keyed by (exact-graph hash, hardware-config digest,
 * scheduler-options digest): equal keys mean the search would produce the
 * same schedule over the same op ids, so a previous search's schedule can
 * be handed out again as it is. The cache is a two-tier store — an
 * in-memory LRU map of decoded, immutable schedules, optionally backed by
 * an on-disk directory of serialized ones so repeated harness runs (e.g.
 * `bench_fig9_overall --plan-cache DIR` twice) skip the search entirely
 * on the second run.
 *
 * Contract: a cache hit is byte-identical to a cold search. That holds
 * because (a) the key covers everything the search reads, (b) the memory
 * tier keeps the searched schedule itself, its groups shared and never
 * changed, and the disk tier its exact serialization minus the graph
 * (plan/serialize.h round-trips bit-for-bit), and (c) a disk entry is
 * validated and decoded once, when it is loaded: wrong magic, version,
 * key echo, size or checksum, or a payload the reader rejects, falls
 * back to a miss, never to a wrong schedule.
 *
 * A hit costs the key, one LRU probe and two reference-count bumps: the
 * caller's graph (or, for a plan over an NTT-rewritten graph, the stored
 * rewrite) and the stored groups. Like the disk tier, the memory tier
 * trusts the exact-graph key and does not check the groups against the
 * caller's graph again.
 *
 * Thread safety: all operations take an internal mutex; concurrent lookups
 * and inserts from the scheduler's thread pool are safe. Disk writes go to
 * a temp file then rename(2), so concurrent processes sharing a directory
 * see either the old file or the complete new one.
 */

#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "sched/group.h"

namespace crophe::telemetry {
class StatsRegistry;
}  // namespace crophe::telemetry

namespace crophe::plan {

/** Cache key: everything the schedule search depends on. */
struct PlanKey
{
    /** Every op in id order, all its fields and both adjacency lists in
     *  insertion order (sched::scheduleGraph's planKeyFor). */
    u64 graphHash = 0;
    u64 hwDigest = 0;   ///< hw::configDigest
    u64 optDigest = 0;  ///< sched::optionsDigest

    bool operator==(const PlanKey &o) const
    {
        return graphHash == o.graphHash && hwDigest == o.hwDigest &&
               optDigest == o.optDigest;
    }

    /** Single-u64 mix of the three components (map bucket + file name). */
    u64 combined() const;
};

/** Monotonic operation counters (telemetry + tests). */
struct PlanCacheStats
{
    u64 hits = 0;         ///< memory-tier hits
    u64 misses = 0;       ///< lookups that found nothing in either tier
    u64 insertions = 0;
    u64 evictions = 0;    ///< LRU evictions from the memory tier
    u64 diskHits = 0;     ///< misses served by a valid on-disk entry
    u64 diskRejects = 0;  ///< on-disk entries rejected by validation
    u64 diskWrites = 0;
};

/** Two-tier (memory LRU + optional directory) plan store. See file doc. */
class PlanCache
{
  public:
    /**
     * @param dir on-disk tier directory ("" = memory only). Created on
     *        first write if missing.
     * @param max_entries memory-tier LRU capacity.
     */
    explicit PlanCache(std::string dir = "", std::size_t max_entries = 256);

    /**
     * Look up @p key, made from graph @p g. On a hit (either tier) sets
     * @p out to the stored schedule and returns true. Its graph is @p g,
     * or the stored rewrite of @p g when its nttN1 is not 0. A disk entry
     * is decoded against @p g and promoted into the memory tier. Returns
     * false on a miss, or when the disk entry fails validation or
     * decoding; that counts as a disk reject and a miss, and leaves
     * @p out unspecified.
     */
    bool lookup(const PlanKey &key, const graph::Graph &g,
                sched::Schedule &out);

    /**
     * Store @p schedule under @p key in the memory tier and, when a
     * directory is configured, write its serialization through to disk
     * atomically. Re-inserting an existing key refreshes its LRU position.
     */
    void insert(const PlanKey &key, const sched::Schedule &schedule);

    PlanCacheStats stats() const;

    /** Register hit/miss/eviction counters as `<prefix>.*` gauges. */
    void registerStats(telemetry::StatsRegistry &reg,
                       const std::string &prefix = "plan.cache") const;

    /**
     * Directory from the CROPHE_PLAN_CACHE environment variable, or "" if
     * unset/empty — the conventional fallback for the `--plan-cache` flag.
     */
    static std::string dirFromEnv();

  private:
    struct Entry
    {
        PlanKey key;
        /** The schedule as searched, except that its graph is empty when
         *  nttN1 is 0: a hit takes the caller's graph instead. */
        sched::Schedule plan;
    };

    std::string filePath(const PlanKey &key) const;
    bool loadFromDisk(const PlanKey &key, const graph::Graph &g,
                      sched::Schedule &out);
    void writeToDisk(const PlanKey &key, const std::vector<u8> &payload);
    /** Put @p schedule at the front of the memory tier; false when @p key
     *  was already there. */
    bool remember(const PlanKey &key, const sched::Schedule &schedule);
    void touchFront(std::list<Entry>::iterator it);

    mutable std::mutex mu_;
    std::string dir_;
    std::size_t maxEntries_;
    /** MRU-first entry list + key index into it. */
    std::list<Entry> lru_;
    std::unordered_map<u64, std::list<Entry>::iterator> index_;
    PlanCacheStats stats_;
};

}  // namespace crophe::plan

#endif  // CROPHE_PLAN_PLAN_CACHE_H_
