#include "sched/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <set>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/parallel.h"
#include "plan/plan_cache.h"
#include "sched/enumerator.h"
#include "sched/ntt_decomp.h"
#include "telemetry/search_telemetry.h"

namespace crophe::sched {

using graph::Graph;
using graph::OpId;

namespace {

/**
 * Anytime-search budget (DESIGN.md §9): a wall-clock deadline shared by
 * one graph search, including its parallel NTT-decomposition sweep.
 * expiry is sticky — once observed, every later poll (from any thread)
 * reports expired, so all candidates truncate together.
 */
class DeadlineClock
{
  public:
    explicit DeadlineClock(double seconds) : active_(seconds > 0.0)
    {
        if (active_)
            deadline_ = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(seconds));
    }

    bool active() const { return active_; }

    /** Has the budget run out? (sticky; cheap when inactive). */
    bool expired() const
    {
        if (!active_)
            return false;
        if (expired_.load(std::memory_order_relaxed))
            return true;
        if (std::chrono::steady_clock::now() < deadline_)
            return false;
        expired_.store(true, std::memory_order_relaxed);
        return true;
    }

  private:
    bool active_;
    std::chrono::steady_clock::time_point deadline_;
    mutable std::atomic<bool> expired_{false};
};

/** A cover of the topo order as (begin, len) windows. */
using Cover = std::vector<std::pair<u32, u32>>;

/**
 * Greedy cover, the anytime fallback schedule (DESIGN.md §9): at each
 * position take the feasible window with the lowest cycles-per-op. It is
 * built before the DP whenever a deadline is armed, so an expired budget
 * always has a complete, valid schedule to return; its windows also prime
 * the enumerator's memo for the DP that follows. If @p deadline expires
 * mid-greedy, the remaining positions take single-op windows (always
 * feasible), so even the fallback construction is bounded.
 */
Cover
greedyCover(GroupEnumerator &enumerator, const DeadlineClock &deadline)
{
    const u32 n = static_cast<u32>(enumerator.topo().size());
    Cover cover;
    u32 i = 0;
    while (i < n) {
        double best_ratio = std::numeric_limits<double>::infinity();
        u32 best_len = 0;
        u32 max_len = enumerator.maxOps();
        if (deadline.expired())
            max_len = 1;  // budget gone: cheapest valid progress
        for (u32 len = 1; len <= max_len && i + len <= n; ++len) {
            const SpatialGroup *cand = enumerator.window(i, len);
            if (!cand)
                continue;
            double ratio = cand->cycles / len;
            if (ratio < best_ratio) {
                best_ratio = ratio;
                best_len = len;
            }
        }
        CROPHE_ASSERT(best_len > 0,
                      "no feasible group at op ", enumerator.topo()[i]);
        cover.emplace_back(i, best_len);
        i += best_len;
    }
    return cover;
}

/** The analyzed spatial groups of @p cover's windows, with op ids. */
std::vector<SpatialGroup>
materializeCover(GroupEnumerator &enumerator, const Cover &cover)
{
    std::vector<SpatialGroup> groups;
    groups.reserve(cover.size());
    for (auto [begin, len] : cover)
        groups.push_back(enumerator.group(begin, len));
    return groups;
}

/**
 * Cover the topological order with spatial groups by dynamic programming:
 * dp[i] = cheapest cost of scheduling the first i ops.
 *
 * With @p deadline set, the search is anytime: once the budget expires
 * the greedy cover (already a complete, valid schedule) is returned
 * instead of finishing the DP, and @p degraded is set.
 */
std::vector<SpatialGroup>
coverByDp(GroupEnumerator &enumerator, const DeadlineClock *deadline,
          bool &degraded)
{
    const u32 n = static_cast<u32>(enumerator.topo().size());
    const Cover greedy =
        deadline != nullptr ? greedyCover(enumerator, *deadline) : Cover{};
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> dp(n + 1, kInf);
    std::vector<u32> choice(n + 1, 0);
    dp[0] = 0.0;
    for (u32 i = 0; i < n; ++i) {
        if (deadline != nullptr && deadline->expired()) {
            degraded = true;
            return materializeCover(enumerator, greedy);
        }
        for (u32 len = 1; len <= enumerator.maxOps() && i + len <= n;
             ++len) {
            const SpatialGroup *cand = enumerator.window(i, len);
            if (!cand)
                continue;
            double cost = dp[i] + cand->cycles;
            if (cost < dp[i + len]) {
                dp[i + len] = cost;
                choice[i + len] = len;
            }
        }
        // Guarantee progress: single-op windows must always be feasible.
        CROPHE_ASSERT(dp[i + 1] < kInf,
                      "no feasible group at op ", enumerator.topo()[i]);
    }

    // Reconstruct the chosen segmentation.
    Cover cover;
    for (u32 i = n; i > 0; i -= choice[i])
        cover.emplace_back(i - choice[i], choice[i]);
    std::reverse(cover.begin(), cover.end());
    return materializeCover(enumerator, cover);
}

/**
 * Working-set spill: the tensors a group materializes and hands off live
 * in the global buffer's working share (the rest is reserved for aux
 * residency). When they do not fit — MAD's orientation-switch buffers at
 * small SRAM capacities — the overflow fraction round-trips DRAM instead
 * (Section V-B: "each orientation switch would need to spill the data to
 * the off-chip memory").
 */
double
applyBufferSpill(const Graph &g, std::vector<SpatialGroup> &groups,
                 const hw::HwConfig &cfg, bool cross_op)
{
    if (groups.size() < 2)
        return 0.0;
    // Handoffs may use the whole buffer (minus the largest in-group
    // staging need); aux pinning later gets whatever stays free.
    u64 max_buffer = 0;
    for (const auto &grp : groups)
        max_buffer = std::max(max_buffer, grp.bufferWords);
    double capacity = 0.9 * static_cast<double>(cfg.sramWords()) -
                      static_cast<double>(max_buffer);
    if (capacity < 0)
        capacity = 0;

    // Group index of each op.
    std::vector<u32> group_of(g.size(), ~0u);
    for (u32 gi = 0; gi < groups.size(); ++gi)
        for (const auto &a : groups[gi].allocs)
            group_of[a.op] = gi;

    // Handoff edges spanning group boundaries, longest span first so the
    // long-lived tensors are the ones pushed off-chip when space runs out.
    struct Handoff
    {
        u32 from, to;  // producer group, last consumer group
        OpId producer;
        u64 volume;
        std::vector<u32> consumerGroups;
    };
    std::vector<Handoff> handoffs;
    for (OpId u = 0; u < g.size(); ++u) {
        if (group_of[u] == ~0u || g.op(u).kind == graph::OpKind::Input)
            continue;
        Handoff h{group_of[u], group_of[u], u, g.op(u).outputWords, {}};
        for (OpId v : g.consumers(u)) {
            if (group_of[v] == ~0u || group_of[v] == group_of[u])
                continue;
            h.consumerGroups.push_back(group_of[v]);
            h.to = std::max(h.to, group_of[v]);
        }
        if (h.consumerGroups.empty())
            continue;
        // Temporal pipelining (Section V-A): a handoff whose consumers run
        // within kTemporalReach spatial groups of its producer (a few
        // groups sharing the chip back-to-back) streams through a
        // granule-sized buffer — it occupies no full-tensor residency. MAD
        // has no cross-operator pipelining, so its handoffs always
        // materialize.
        constexpr u32 kTemporalReach = 6;
        if (cross_op && h.to <= h.from + kTemporalReach) {
            bool streamable = true;
            for (OpId v : g.consumers(u))
                if (group_of[v] != group_of[u])
                    streamable &= axesCompatible(g.op(u), g.op(v));
            if (streamable)
                continue;
        }
        // Otherwise the tensor is live from its producer to its last
        // consumer, regardless of how many operators read it.
        handoffs.push_back(std::move(h));
    }
    // Short-lived handoffs (the overwhelmingly common produce-then-consume
    // pattern) get the buffer first; long-lived tensors — e.g. the n1
    // baby-step ciphertexts BSGS keeps alive — are the ones spilled when
    // space runs out, exactly the temporary-ciphertext pressure SHARP
    // reports dominating the working set.
    std::sort(handoffs.begin(), handoffs.end(),
              [](const Handoff &a, const Handoff &b) {
                  return a.to - a.from < b.to - b.from;
              });

    // Greedy placement: a handoff stays in SRAM only if every boundary it
    // spans still has room; otherwise it round-trips DRAM.
    std::vector<double> live(groups.size(), 0.0);
    std::set<u32> dirty;
    for (const auto &h : handoffs) {
        bool fits = true;
        for (u32 b = h.from; b < h.to && fits; ++b)
            fits = live[b] + static_cast<double>(h.volume) <= capacity;
        if (fits) {
            for (u32 b = h.from; b < h.to; ++b)
                live[b] += static_cast<double>(h.volume);
            continue;
        }
        // Spill: the producer's write and every consumer's read move from
        // the global buffer to DRAM.
        auto &pg = groups[h.from];
        pg.sramWords = pg.sramWords > h.volume ? pg.sramWords - h.volume
                                               : 0;
        pg.dramWords += h.volume;
        dirty.insert(h.from);
        for (u32 cgi : h.consumerGroups) {
            auto &cg = groups[cgi];
            cg.sramWords = cg.sramWords > h.volume
                               ? cg.sramWords - h.volume
                               : 0;
            cg.dramWords += h.volume;
            dirty.insert(cgi);
        }
    }
    for (u32 gi : dirty) {
        auto &grp = groups[gi];
        grp.cycles = std::max({grp.computeCycles,
                               dramCycles(cfg, grp.dramWords),
                               sramCycles(cfg, grp.sramWords),
                               nocCycles(cfg, grp.nocWords)});
    }
    double peak_live = 0.0;
    for (double l : live)
        peak_live = std::max(peak_live, l);
    return peak_live;
}

/**
 * Schedule-level aux residency (temporal sharing, Section V-A; also the
 * evk caching all baselines enjoy in their large SRAM, Section VII-C).
 *
 * Aux constants live in the global-buffer space left over by the working
 * buffers, managed LRU. A hit removes the group's DRAM charge for that
 * key; a miss keeps it and (re)inserts the key. Keys larger than the
 * available space are streamed every time — this is what makes small-SRAM
 * configurations evk-bound and the hybrid rotation valuable (Figure 10).
 *
 * Returns the total aux words still charged to DRAM.
 */
struct AuxLru
{
    std::vector<std::pair<std::string, u64>> entries;  ///< front = MRU
    double resident = 0.0;
};

u64
applyAuxCaching(std::vector<SpatialGroup> &groups, const hw::HwConfig &cfg,
                double reserved_words, AuxLru &state)
{
    u64 max_buffer = 0;
    for (const auto &g : groups)
        max_buffer = std::max(max_buffer, g.bufferWords);
    double capacity = 0.9 * static_cast<double>(cfg.sramWords()) -
                      static_cast<double>(max_buffer) - reserved_words;
    if (capacity < 0)
        capacity = 0;

    auto &pinned = state.entries;
    double &resident = state.resident;
    u64 charged = 0;

    // Pin-first-fit residency: keys claim buffer space in first-use order
    // and stay pinned; once the space is exhausted the remaining keys are
    // streamed on every use. FHE aux reuse is cyclic (the same evks come
    // around every repetition), where LRU would evict exactly the entry
    // about to be reused — pinning is what the paper's scheduler (and the
    // baselines' evk caching, Section VII-C) effectively does, and it
    // makes the hit fraction track the capacity smoothly (Figure 10).
    auto touch = [&](const std::string &key, u64 words) -> bool {
        for (const auto &entry : pinned)
            if (entry.first == key)
                return true;  // hit: key is pinned on-chip
        if (resident + static_cast<double>(words) > capacity)
            return false;  // no space left: streamed every time
        pinned.emplace_back(key, words);
        resident += static_cast<double>(words);
        return false;  // first fetch of a now-pinned key
    };

    for (auto &g : groups) {
        u64 saved = 0;
        u64 group_aux = 0;
        std::set<std::string> seen_in_group;
        for (const auto &[key, vol] : g.auxNeeds) {
            bool dup_in_group = !seen_in_group.insert(key).second;
            bool hit = touch(key, vol);
            if (hit || dup_in_group)
                saved += vol;
            else
                group_aux += vol;
        }
        if (saved > 0) {
            g.dramWords = g.dramWords > saved ? g.dramWords - saved : 0;
            g.cycles = std::max({g.computeCycles,
                                 dramCycles(cfg, g.dramWords),
                                 sramCycles(cfg, g.sramWords),
                                 nocCycles(cfg, g.nocWords)});
        }
        charged += group_aux;
    }
    return charged;
}

SchedStats
summarize(const std::vector<SpatialGroup> &groups)
{
    SchedStats st;
    for (const auto &g : groups) {
        st.cycles += g.cycles;
        st.dramWords += g.dramWords;
        st.sramWords += g.sramWords;
        st.nocWords += g.nocWords;
        st.flops += g.flops;
    }
    return st;
}

Schedule
scheduleOneGraph(const Graph &g, const hw::HwConfig &cfg,
                 const SchedOptions &opt, const DeadlineClock *deadline)
{
    CROPHE_ASSERT(opt.memo != nullptr, "scheduleGraph provides a memo");
    GroupEnumerator enumerator(g, cfg,
                               /*mad=*/!opt.crossOpDataflow,
                               opt.crossOpDataflow ? opt.maxGroupOps : 3,
                               *opt.memo);
    bool degraded = false;
    auto groups = coverByDp(enumerator, deadline, degraded);
    if (opt.search != nullptr)
        opt.search->addEnumeration(enumerator.analyzedCount(),
                                   enumerator.memoHits());
    double peak_live =
        applyBufferSpill(g, groups, cfg, opt.crossOpDataflow);

    // Cold pass: aux constants arrive from DRAM, building up residency in
    // the buffer space the working set leaves free.
    AuxLru lru;
    auto warm_groups = groups;  // pre-caching copy
    u64 cold_charged = applyAuxCaching(groups, cfg, peak_live, lru);

    // Warm pass: a repeated execution starts with the residency the cold
    // run left behind (segments repeat many times in FHE workloads).
    u64 warm_charged = applyAuxCaching(warm_groups, cfg, peak_live, lru);

    Schedule sched;
    sched.graph = g;
    sched.warmStats = summarize(warm_groups);
    sched.warmStats.auxDramWords = warm_charged;
    fillUtilization(sched.warmStats, cfg);
    sched.stats = summarize(groups);
    sched.stats.auxDramWords = cold_charged;
    fillUtilization(sched.stats, cfg);
    sched.groups = std::make_shared<const std::vector<SpatialGroup>>(
        std::move(groups));
    sched.degraded = degraded;
    return sched;
}

/** Full (uncached) schedule search: base + NTT-decomposition sweep. */
Schedule
scheduleGraphSearch(const Graph &g, const hw::HwConfig &cfg,
                    const SchedOptions &opt)
{
    // One wall-clock budget spans the base search and the decomposition
    // sweep; a truncated result anywhere makes the whole search anytime
    // (best could differ from the exhaustive sweep), hence degraded.
    DeadlineClock clock(opt.deadlineSeconds);
    const DeadlineClock *deadline = clock.active() ? &clock : nullptr;
    auto finish = [&](Schedule &&s, bool truncated) {
        s.degraded = s.degraded || truncated;
        if (s.degraded && opt.search != nullptr)
            opt.search->addDeadlineHit();
        return std::move(s);
    };

    Schedule best = scheduleOneGraph(g, cfg, opt, deadline);
    if (opt.search != nullptr)
        opt.search->recordCandidate();
    if (!opt.nttDecomp || !opt.crossOpDataflow)
        return finish(std::move(best), false);

    // Try the four-step NTT rewritings; n is taken from the largest
    // transform in the graph.
    u64 n = 0;
    for (const auto &op : g.ops())
        if (op.kind == graph::OpKind::Ntt || op.kind == graph::OpKind::INtt)
            n = std::max(n, op.n);
    if (n == 0)
        return finish(std::move(best), false);

    // Candidates share one GroupMemo (its values are pure functions of
    // their keys, so the sweep stays independent work); telemetry and the
    // best-pick reduction run on this thread in option order, keeping the
    // chosen schedule (and tie-breaks) identical to the sequential sweep.
    auto options = nttDecompositionOptions(n, cfg.lanes);
    std::vector<std::unique_ptr<Schedule>> cands(options.size());
    parallelFor(0, options.size(), [&](u64 i) {
        Graph rewritten = rewriteNttDecomposition(g, options[i]);
        cands[i] = std::make_unique<Schedule>(
            scheduleOneGraph(rewritten, cfg, opt, deadline));
        cands[i]->nttN1 = options[i];
    });
    bool truncated = best.degraded;
    for (u64 i = 0; i < options.size(); ++i) {
        if (opt.search != nullptr)
            opt.search->recordCandidate();
        // A truncated candidate taints the sweep even when another one
        // wins: the comparison no longer matches the exhaustive search.
        truncated = truncated || cands[i]->degraded;
        if (cands[i]->stats.cycles < best.stats.cycles)
            best = std::move(*cands[i]);
    }
    return finish(std::move(best), truncated);
}

/**
 * Plan-cache key for scheduling @p g on @p cfg with @p opt. The graph
 * component is the exact graph's content hash, so a hit's schedule names
 * the caller's own op ids, and the reader can rebuild its graph from the
 * caller's.
 */
plan::PlanKey
planKeyFor(const Graph &g, const hw::HwConfig &cfg, const SchedOptions &opt)
{
    plan::PlanKey key;
    key.graphHash = g.contentHash();
    key.hwDigest = hw::configDigest(cfg);
    key.optDigest = optionsDigest(opt);
    return key;
}

}  // namespace

Schedule
scheduleGraph(const Graph &g, const hw::HwConfig &cfg,
              const SchedOptions &opt)
{
    hw::validateConfig(cfg);
    // The sweeps below share one group memo when the caller didn't
    // provide a broader-scoped one.
    GroupMemo local_memo;
    SchedOptions o = opt;
    if (o.memo == nullptr)
        o.memo = &local_memo;

    if (o.planCache == nullptr)
        return scheduleGraphSearch(g, cfg, o);

    plan::PlanKey key = planKeyFor(g, cfg, o);
    Schedule sched;
    const bool hit = o.planCache->lookup(key, g, sched);
    if (o.search != nullptr)
        o.search->addPlanLookup(hit);
    if (hit)
        return sched;
    // The miss claimed the key, so concurrent lookups of it wait for this
    // search (single flight, DESIGN.md §8). The search looks up no other
    // key, so waits never form a cycle; a search that throws releases the
    // claim, and a waiter then searches itself.
    try {
        sched = scheduleGraphSearch(g, cfg, o);
    } catch (...) {
        o.planCache->release(key);
        throw;
    }
    // Deadline-truncated schedules are anytime fallbacks, not the exact
    // result this key promises — never cache them (DESIGN.md §9).
    if (sched.degraded)
        o.planCache->release(key);
    else
        o.planCache->insert(key, sched);
    return sched;
}

hw::HwConfig
clusterConfig(const hw::HwConfig &cfg, u32 clusters)
{
    hw::HwConfig slice = cfg;
    if (clusters > 1) {
        slice.numPes = std::max<u32>(1, cfg.numPes / clusters);
        slice.meshY = std::max<u32>(1, cfg.meshY / clusters);
        slice.sramGBs = cfg.sramGBs / clusters;
        slice.dramGBs = cfg.dramGBs / clusters;
    }
    return slice;
}

WorkloadResult
scheduleWorkload(const graph::Workload &w, const hw::HwConfig &cfg,
                 const SchedOptions &opt)
{
    hw::validateConfig(cfg);
    const hw::HwConfig cluster_cfg = clusterConfig(cfg, opt.clusters);

    // Segments are independent graphs; schedule them concurrently into
    // per-segment slots (disjoint writes, index-order aggregation below).
    // They share one group memo (FHE workloads repeat the same subgraphs
    // across segments) unless the caller already scoped one wider.
    GroupMemo local_memo;
    SchedOptions o = opt;
    if (o.memo == nullptr)
        o.memo = &local_memo;
    std::vector<Schedule> schedules(w.segments.size());
    parallelFor(0, w.segments.size(), [&](u64 i) {
        schedules[i] = scheduleGraph(w.segments[i].graph, cluster_cfg, o);
    });

    return aggregateWorkload(w, cfg, schedules, opt.clusters);
}

WorkloadResult
scheduleWorkloadAutoClusters(const graph::Workload &w,
                             const hw::HwConfig &cfg,
                             const SchedOptions &opt)
{
    WorkloadResult best;
    best.stats.cycles = std::numeric_limits<double>::infinity();
    std::vector<u32> ks;
    for (u32 k : {1u, 2u, 4u})
        if (cfg.numPes / k != 0)
            ks.push_back(k);
    // Cluster counts are independent design points: evaluate in parallel,
    // then reduce in candidate order for determinism.
    std::vector<std::unique_ptr<WorkloadResult>> results(ks.size());
    parallelFor(0, ks.size(), [&](u64 i) {
        SchedOptions o = opt;
        o.clusters = ks[i];
        results[i] =
            std::make_unique<WorkloadResult>(scheduleWorkload(w, cfg, o));
    });
    for (u64 i = 0; i < ks.size(); ++i)
        if (results[i]->stats.cycles < best.stats.cycles)
            best = std::move(*results[i]);
    return best;
}

}  // namespace crophe::sched
