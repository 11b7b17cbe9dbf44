#include "sched/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <set>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/parallel.h"
#include "plan/plan_cache.h"
#include "plan/serialize.h"
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

/**
 * Incremental admissible lower bound on a topo window's group cycles
 * (DESIGN.md §8). Never calls analyzeSpatialGroup: the bound is assembled
 * from running sums as the window grows one op at a time, mirroring the
 * analysis's DRAM charges exactly and UNDER-counting its SRAM and compute
 * terms — so lb() <= the analyzed group's cycles for every feasible
 * window, which is what makes branch-and-bound pruning exact.
 */
class WindowBound
{
  public:
    explicit WindowBound(const GroupEnumerator &e)
        : g_(&e.graph()), cfg_(&e.config()), mad_(e.mad()), topo_(&e.topo()),
          pos_(&e.positions())
    {
        const hw::HwConfig &cfg = e.config();
        // Admissible compute capacity: homogeneous chips retire at most
        // multsPerCycle; specialized chips at most the sum of their FU
        // class capacities (the per-class max in analyzeSpatialGroup is
        // >= flops / sum by the mediant inequality).
        double frac = 0.0;
        for (double f : cfg.fuFraction)
            frac += f;
        effMults_ = static_cast<double>(cfg.multsPerCycle()) *
                    (cfg.homogeneous ? 1.0 : frac);
        if (effMults_ < 1.0)
            effMults_ = 1.0;
    }

    /** Restart at window [begin, begin). */
    void reset(u32 begin)
    {
        begin_ = begin;
        len_ = 0;
        flops_ = 0;
        ioDram_ = 0;
        auxDram_ = 0;
        sram_ = 0;
        extCnt_.clear();
        seenAux_.clear();
    }

    /** Grow the window by the next topo op. */
    void extend()
    {
        OpId w = (*topo_)[begin_ + len_];
        ++len_;
        const graph::Op &op = g_->op(w);
        flops_ += op.flops;
        if (op.kind == graph::OpKind::Input) {
            ioDram_ += op.outputWords;
            return;
        }
        if (op.kind == graph::OpKind::Output) {
            ioDram_ += op.inputWords;
            // An in-window Output still internalizes its producers'
            // consumer-side handoffs; it adds no charges of its own.
            for (OpId p : g_->producers(w))
                if (inWindow(p))
                    internalize(p);
            return;
        }
        if (op.auxWords > 0) {
            // Exactly the analysis's DRAM charge: keyless and MAD aux per
            // op, keyed aux once per distinct key in the window.
            if (op.auxKey.empty() || mad_)
                auxDram_ += op.auxWords;
            else if (seenAux_.insert(op.auxKey).second)
                auxDram_ += op.auxWords;
        }
        for (OpId p : g_->producers(w)) {
            if (inWindow(p))
                internalize(p);
            else if (g_->op(p).kind != graph::OpKind::Input)
                sram_ += g_->op(p).outputWords;
        }
        // Consumer side: all consumers are later in topo order, hence
        // external until the window grows over them.
        sram_ += op.outputWords;
        if (!g_->consumers(w).empty())
            extCnt_.emplace_back(w, static_cast<u32>(
                                        g_->consumers(w).size()));
    }

    double lb() const
    {
        double compute = static_cast<double>(flops_) / effMults_;
        double dram = dramCycles(*cfg_, ioDram_ + auxDram_);
        double sram = sramCycles(*cfg_, sram_);
        return std::max({compute, dram, sram});
    }

  private:
    bool inWindow(OpId id) const { return (*pos_)[id] - begin_ < len_; }

    void internalize(OpId p)
    {
        for (auto &e : extCnt_) {
            if (e.first != p)
                continue;
            if (--e.second == 0)
                sram_ -= g_->op(p).outputWords;
            return;
        }
    }

    const Graph *g_;
    const hw::HwConfig *cfg_;
    bool mad_;
    const std::vector<OpId> *topo_;
    const std::vector<u32> *pos_;  ///< op id -> topo position
    double effMults_;

    u32 begin_ = 0;
    u32 len_ = 0;
    u64 flops_ = 0;
    u64 ioDram_ = 0;
    u64 auxDram_ = 0;
    u64 sram_ = 0;
    /** In-window ops with external consumers left: (op, remaining). */
    std::vector<std::pair<OpId, u32>> extCnt_;
    std::set<std::string> seenAux_;
};

/** A cover of the topo order as (begin, len) windows. */
using Cover = std::vector<std::pair<u32, u32>>;

/** A cover with its cost. */
struct GreedyCover
{
    Cover windows;
    double cycles = 0.0;
};

/**
 * Greedy cover used to seed branch-and-bound: at each position take the
 * feasible window with the lowest cycles-per-op. Its cost is a valid
 * incumbent (it is a real schedule), its windows prime the enumerator's
 * memo for the DP that follows — and under a deadline it IS the anytime
 * fallback schedule. If @p deadline expires mid-greedy, the remaining
 * positions take single-op windows (always feasible), so even the
 * fallback construction is bounded.
 */
GreedyCover
greedyCover(GroupEnumerator &enumerator, const DeadlineClock *deadline)
{
    const u32 n = static_cast<u32>(enumerator.topo().size());
    GreedyCover cover;
    u32 i = 0;
    while (i < n) {
        double best_ratio = std::numeric_limits<double>::infinity();
        double best_cycles = 0.0;
        u32 best_len = 0;
        u32 max_len = enumerator.maxOps();
        if (deadline != nullptr && deadline->expired())
            max_len = 1;  // budget gone: cheapest valid progress
        for (u32 len = 1; len <= max_len && i + len <= n; ++len) {
            const SpatialGroup *cand = enumerator.window(i, len);
            if (!cand)
                continue;
            double ratio = cand->cycles / len;
            if (ratio < best_ratio) {
                best_ratio = ratio;
                best_cycles = cand->cycles;
                best_len = len;
            }
        }
        CROPHE_ASSERT(best_len > 0,
                      "no feasible group at op ", enumerator.topo()[i]);
        cover.windows.emplace_back(i, best_len);
        cover.cycles += best_cycles;
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
 * With @p prune set, windows whose admissible lower bound (plus the lower
 * bound of completing the cover) already exceeds the greedy incumbent are
 * skipped without analysis. The chosen cover is bit-identical to the
 * exhaustive sweep: every relaxation that achieves a dp value on the
 * reconstructed (optimal) path satisfies dp[i] + lb <= OPT <= incumbent
 * and therefore survives, and first-wins tie-breaking is preserved
 * because pruned relaxations were strictly above the final dp value
 * (DESIGN.md §8 for the full argument).
 *
 * With @p deadline set and active, the search is anytime: once the
 * budget expires the greedy cover (already a complete, valid schedule)
 * is returned instead of finishing the DP, and @p degraded is set.
 */
std::vector<SpatialGroup>
coverByDp(GroupEnumerator &enumerator, bool prune, u64 &pruned_windows,
          const DeadlineClock *deadline, bool &degraded)
{
    const u32 n = static_cast<u32>(enumerator.topo().size());
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> dp(n + 1, kInf);
    std::vector<u32> choice(n + 1, 0);
    dp[0] = 0.0;

    bool timed = deadline != nullptr && deadline->active();
    GreedyCover greedy;
    bool have_greedy = false;
    if ((prune || timed) && n > 0) {
        greedy = greedyCover(enumerator, deadline);
        have_greedy = true;
    }
    auto fall_back = [&]() {
        degraded = true;
        return materializeCover(enumerator, greedy.windows);
    };
    if (timed && have_greedy && deadline->expired())
        return fall_back();

    WindowBound wb(enumerator);
    double bound = kInf;
    std::vector<double> lb_suffix;
    if (prune && n > 0) {
        // The epsilon absorbs float rounding in the bound sums: pruning
        // must only ever discard windows that are strictly worse in exact
        // arithmetic.
        bound = greedy.cycles * (1.0 + 1e-9);
        // lbSuffix[j]: admissible lower bound on covering ops [j, n).
        lb_suffix.assign(n + 1, 0.0);
        for (u32 j = n; j-- > 0;) {
            wb.reset(j);
            double best = kInf;
            for (u32 len = 1; len <= enumerator.maxOps() && j + len <= n;
                 ++len) {
                wb.extend();
                best = std::min(best, wb.lb() + lb_suffix[j + len]);
            }
            lb_suffix[j] = best;
        }
        if (timed && deadline->expired())
            return fall_back();
    }

    for (u32 i = 0; i < n; ++i) {
        if (dp[i] == kInf)
            continue;
        if (timed && deadline->expired())
            return fall_back();
        if (prune)
            wb.reset(i);
        for (u32 len = 1; len <= enumerator.maxOps() && i + len <= n;
             ++len) {
            if (prune) {
                wb.extend();
                if (dp[i] + wb.lb() + lb_suffix[i + len] > bound) {
                    ++pruned_windows;
                    continue;
                }
            }
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
        // Under pruning a prefix may legitimately stay unreached (every
        // path through it is provably worse than the incumbent); the
        // greedy cover's own windows always survive, so dp[n] is bounded.
        if (!prune)
            CROPHE_ASSERT(dp[i + 1] < kInf,
                          "no feasible group at op ", enumerator.topo()[i]);
    }
    CROPHE_ASSERT(n == 0 || dp[n] < kInf, "search pruned away every cover");

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
        // within the same temporal group (a few spatial groups sharing
        // the chip back-to-back) streams through a granule-sized buffer —
        // it occupies no full-tensor residency. MAD has no cross-operator
        // pipelining, so its handoffs always materialize.
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

/**
 * Compose spatial groups into temporal groups (Section V-A): consecutive
 * groups share the chip back-to-back while their buffers and resident aux
 * fit. MAD runs every group standalone.
 */
std::vector<TemporalGroup>
composeTemporal(std::vector<SpatialGroup> groups, const hw::HwConfig &cfg,
                bool cross_op)
{
    std::vector<TemporalGroup> sequence;
    const double capacity = 0.8 * static_cast<double>(cfg.sramWords());

    TemporalGroup current;
    double resident_words = 0.0;

    auto flush = [&]() {
        if (current.groups.empty())
            return;
        current.residentAuxWords = static_cast<u64>(resident_words);
        current.cycles = 0.0;
        for (const auto &g : current.groups)
            current.cycles += g.cycles;
        sequence.push_back(std::move(current));
        current = TemporalGroup();
        resident_words = 0.0;
    };

    for (auto &g : groups) {
        if (!cross_op) {
            current.groups.push_back(std::move(g));
            flush();
            continue;
        }
        double new_words = static_cast<double>(g.bufferWords);
        for (const auto &[key, vol] : g.auxNeeds)
            new_words += static_cast<double>(vol);
        if (!current.groups.empty() && resident_words + new_words > capacity)
            flush();
        resident_words += new_words;
        current.groups.push_back(std::move(g));
    }
    flush();
    return sequence;
}

SchedStats
summarize(const std::vector<TemporalGroup> &sequence)
{
    SchedStats st;
    for (const auto &tg : sequence) {
        for (const auto &g : tg.groups) {
            st.cycles += g.cycles;
            st.dramWords += g.dramWords;
            st.sramWords += g.sramWords;
            st.nocWords += g.nocWords;
            st.flops += g.flops;
        }
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
    u64 pruned = 0;
    bool degraded = false;
    auto groups = coverByDp(enumerator, opt.pruneSearch, pruned, deadline,
                            degraded);
    if (opt.search != nullptr) {
        opt.search->addEnumeration(enumerator.analyzedCount(),
                                   enumerator.memoHits());
        opt.search->addPruning(pruned);
    }
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
    {
        auto warm_seq = composeTemporal(std::move(warm_groups), cfg,
                                        opt.crossOpDataflow);
        sched.warmStats = summarize(warm_seq);
        sched.warmStats.auxDramWords = warm_charged;
        fillUtilization(sched.warmStats, cfg);
    }
    sched.sequence = composeTemporal(std::move(groups), cfg,
                                     opt.crossOpDataflow);
    sched.stats = summarize(sched.sequence);
    sched.stats.auxDramWords = cold_charged;
    fillUtilization(sched.stats, cfg);
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
        opt.search->recordCandidate("base", best.stats.cycles);
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
    });
    bool truncated = best.degraded;
    for (u64 i = 0; i < options.size(); ++i) {
        if (opt.search != nullptr)
            opt.search->recordCandidate(
                "nttdec n1=" + std::to_string(options[i]),
                cands[i]->stats.cycles);
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
 * component extends structuralHash (which covers op shapes and edge
 * structure) with the remaining Op fields so any two graphs with equal
 * digests schedule — and print — identically.
 */
plan::PlanKey
planKeyFor(const Graph &g, const hw::HwConfig &cfg, const SchedOptions &opt)
{
    auto topo = g.topoOrder();
    u64 h = g.structuralHash(topo);
    auto mix = [&h](u64 v) {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        h *= 1099511628211ull;
    };
    for (OpId id : topo) {
        const graph::Op &op = g.op(id);
        mix(std::hash<std::string>{}(op.label));
        mix(op.n2);
        mix(op.inputWords);
        mix(op.outputWords);
        mix(op.flops);
        mix(op.streamAxes.size());
        for (graph::StreamAxis a : op.streamAxes)
            mix(static_cast<u64>(a));
        mix(op.orientationSwitch ? 1 : 0);
    }
    plan::PlanKey key;
    key.graphHash = h;
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
    std::vector<u8> bytes;
    if (o.planCache->lookup(key, bytes)) {
        Schedule cached;
        plan::ByteReader reader(bytes);
        if (plan::deserializeSchedule(reader, cached)) {
            if (o.search != nullptr)
                o.search->addPlanLookup(true);
            return cached;
        }
        // An undeserializable payload means a corrupt or stale entry that
        // slipped past validation; fall back to a full search.
    }
    if (o.search != nullptr)
        o.search->addPlanLookup(false);
    Schedule sched = scheduleGraphSearch(g, cfg, o);
    // Deadline-truncated schedules are anytime fallbacks, not the exact
    // result this key promises — never cache them (DESIGN.md §9).
    if (!sched.degraded)
        o.planCache->insert(key, plan::scheduleBytes(sched));
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

    return aggregateWorkload(w, cfg, schedules, opt.clusters,
                             opt.shareAuxAcrossClusters);
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
    // then record and reduce in candidate order for determinism. The
    // group memo spans all candidates (cluster-sliced configs get their
    // own keys via the hardware digest, so there is no false sharing).
    GroupMemo local_memo;
    std::vector<std::unique_ptr<WorkloadResult>> results(ks.size());
    parallelFor(0, ks.size(), [&](u64 i) {
        SchedOptions o = opt;
        if (o.memo == nullptr)
            o.memo = &local_memo;
        o.clusters = ks[i];
        results[i] =
            std::make_unique<WorkloadResult>(scheduleWorkload(w, cfg, o));
    });
    for (u64 i = 0; i < ks.size(); ++i) {
        if (opt.search != nullptr)
            opt.search->recordCandidate("clusters=" + std::to_string(ks[i]),
                                        results[i]->stats.cycles);
        if (results[i]->stats.cycles < best.stats.cycles)
            best = std::move(*results[i]);
    }
    return best;
}

}  // namespace crophe::sched
