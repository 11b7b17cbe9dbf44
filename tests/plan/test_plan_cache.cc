#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "baselines/baseline.h"
#include "common/parallel.h"
#include "graph/workloads.h"
#include "hw/config.h"
#include "plan/plan_cache.h"
#include "plan/serialize.h"
#include "sched/enumerator.h"
#include "sched/ntt_decomp.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "telemetry/search_telemetry.h"
#include "tests/plan/plan_test_util.h"

namespace crophe::plan {
namespace {

namespace fs = std::filesystem;
using graph::OpId;
using graph::RotMode;
using graph::WorkloadOptions;

/** Fresh scratch directory under the test temp dir. */
std::string
scratchDir(const std::string &name)
{
    std::string dir = testing::TempDir() + "crophe_" + name;
    fs::remove_all(dir);
    return dir;
}

PlanKey
key(u64 a, u64 b = 2, u64 c = 3)
{
    PlanKey k;
    k.graphHash = a;
    k.hwDigest = b;
    k.optDigest = c;
    return k;
}

/**
 * x -> y, x -> z, y -> z, z -> o over an Input x, an EwMul y, an EwAdd z
 * and an Output o, the ops added in the order @p order names them.
 */
graph::Graph
fourOps(const std::string &order)
{
    graph::Graph g;
    std::map<char, OpId> id;
    for (char c : order) {
        constexpr u64 kN = 1 << 12;
        if (c == 'x')
            id['x'] = g.add(graph::makeInput(kN, 4));
        else if (c == 'y')
            id['y'] = g.add(graph::makeEwBinary(graph::OpKind::EwMul, kN, 4));
        else if (c == 'z')
            id['z'] = g.add(graph::makeEwBinary(graph::OpKind::EwAdd, kN, 4));
        else
            id['o'] = g.add(graph::makeOutput(kN, 4));
    }
    g.connect(id.at('x'), id.at('y'));
    g.connect(id.at('x'), id.at('z'));
    g.connect(id.at('y'), id.at('z'));
    g.connect(id.at('z'), id.at('o'));
    return g;
}

/** @p g's ops joined by @p edges, connected in the order listed. */
graph::Graph
withEdges(const graph::Graph &g,
          const std::vector<std::pair<OpId, OpId>> &edges)
{
    graph::Graph out;
    for (const graph::Op &op : g.ops())
        out.add(op);
    for (auto [from, to] : edges)
        out.connect(from, to);
    return out;
}

/** @p g rebuilt with op @p id changed by @p edit: its ops are added
 *  again, then each op's consumers are connected in list order. */
graph::Graph
withOpEdited(const graph::Graph &g, OpId id,
             const std::function<void(graph::Op &)> &edit)
{
    graph::Graph out;
    for (graph::Op op : g.ops()) {
        if (op.id == id)
            edit(op);
        out.add(std::move(op));
    }
    for (OpId v = 0; v < g.size(); ++v)
        for (OpId c : g.consumers(v))
            out.connect(v, c);
    return out;
}

/** The schedule a cold search finds for @p g on CROPHE-64. */
sched::Schedule
searched(const graph::Graph &g)
{
    return sched::scheduleGraph(g, hw::configCrophe64(), cropheOptions());
}

TEST(PlanCache, MemoryTierHitsAndMisses)
{
    const graph::Graph g = fourOps("xyzo");
    const sched::Schedule plan = searched(g);
    PlanCache cache;
    sched::Schedule out;
    EXPECT_FALSE(cache.lookup(key(1), g, out));
    cache.insert(key(1), plan);
    ASSERT_TRUE(cache.lookup(key(1), g, out));
    expectSamePlan(out, plan);
    // Same graph hash under a different hw digest is a different plan.
    EXPECT_FALSE(cache.lookup(key(1, 99), g, out));

    PlanCacheStats st = cache.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(st.insertions, 1u);
    EXPECT_EQ(st.diskWrites, 0u);  // memory-only cache
}

TEST(PlanCache, MemoryHitsShareTheStoredGroupsAndTheCallersGraph)
{
    const graph::Graph g = fourOps("xyzo");
    const sched::Schedule plan = searched(g);
    ASSERT_EQ(plan.nttN1, 0u);
    PlanCache cache;
    cache.insert(key(1), plan);
    // A copy of the caller's graph shares its storage, and so do hits.
    const graph::Graph caller = g;
    sched::Schedule a, b;
    ASSERT_TRUE(cache.lookup(key(1), caller, a));
    ASSERT_TRUE(cache.lookup(key(1), caller, b));
    EXPECT_EQ(a.groups.get(), plan.groups.get());
    EXPECT_EQ(b.groups.get(), a.groups.get());
    EXPECT_EQ(&a.graph.ops(), &caller.ops());
    EXPECT_EQ(&b.graph.ops(), &caller.ops());
    expectSamePlan(a, plan);
}

TEST(PlanCache, LruEvictsOldestEntry)
{
    const graph::Graph g1 = fourOps("xyzo");
    const graph::Graph g2 = fourOps("xzyo");
    const graph::Graph g3 = fourOps("oxzy");
    PlanCache cache("", /*max_entries=*/2);
    cache.insert(key(1), searched(g1));
    cache.insert(key(2), searched(g2));
    sched::Schedule out;
    ASSERT_TRUE(cache.lookup(key(1), g1, out));  // 1 is now most recent
    cache.insert(key(3), searched(g3));          // evicts 2

    EXPECT_TRUE(cache.lookup(key(1), g1, out));
    expectSamePlan(out, searched(g1));
    EXPECT_FALSE(cache.lookup(key(2), g2, out));
    EXPECT_TRUE(cache.lookup(key(3), g3, out));
    expectSamePlan(out, searched(g3));
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(PlanCache, DiskTierSurvivesProcessRestart)
{
    std::string dir = scratchDir("plan_disk");
    const graph::Graph g = fourOps("xyzo");
    const sched::Schedule plan = searched(g);
    {
        PlanCache cache(dir);
        cache.insert(key(7), plan);
        EXPECT_EQ(cache.stats().diskWrites, 1u);
    }
    // A fresh cache (empty memory tier) must serve the entry from disk and
    // promote it.
    PlanCache cache(dir);
    sched::Schedule out;
    ASSERT_TRUE(cache.lookup(key(7), g, out));
    expectSamePlan(out, plan);
    EXPECT_EQ(cache.stats().diskHits, 1u);
    // Second lookup is a memory hit: no second disk read.
    sched::Schedule again;
    ASSERT_TRUE(cache.lookup(key(7), g, again));
    EXPECT_EQ(again.groups.get(), out.groups.get());
    EXPECT_EQ(cache.stats().diskHits, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

/** The only file in @p dir. */
fs::path
onlyFile(const std::string &dir)
{
    EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                            fs::directory_iterator()),
              1);
    return fs::directory_iterator(dir)->path();
}

std::vector<char>
readAll(const fs::path &file)
{
    std::ifstream is(file, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(is),
                             std::istreambuf_iterator<char>());
}

void
writeAll(const fs::path &file, const std::vector<char> &bytes)
{
    std::ofstream os(file, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(PlanCache, CorruptDiskEntriesAreRejectedNotReturned)
{
    std::string dir = scratchDir("plan_corrupt");
    const graph::Graph g7 = fourOps("xyzo");
    const graph::Graph g8 = fourOps("xzyo");
    {
        PlanCache cache(dir);
        cache.insert(key(7), searched(g7));
    }
    const fs::path file = onlyFile(dir);
    const std::vector<char> good = readAll(file);
    sched::Schedule out;

    // Flipped payload byte: checksum mismatch.
    std::vector<char> bad = good;
    bad[bad.size() - 9] ^= 0x5a;
    writeAll(file, bad);
    {
        PlanCache cache(dir);
        EXPECT_FALSE(cache.lookup(key(7), g7, out));
        EXPECT_EQ(cache.stats().diskRejects, 1u);
        EXPECT_EQ(cache.stats().misses, 1u);
    }

    // Truncated file.
    writeAll(file, std::vector<char>(good.begin(), good.end() - 3));
    {
        PlanCache cache(dir);
        EXPECT_FALSE(cache.lookup(key(7), g7, out));
        EXPECT_EQ(cache.stats().diskRejects, 1u);
    }

    // Stale format version (bytes 4..8 after the magic).
    bad = good;
    bad[4] ^= 0x7f;
    writeAll(file, bad);
    {
        PlanCache cache(dir);
        EXPECT_FALSE(cache.lookup(key(7), g7, out));
        EXPECT_EQ(cache.stats().diskRejects, 1u);
    }

    // Key echo from some other plan (simulates a hash-collision file).
    {
        PlanCache seed2(dir);
        seed2.insert(key(8), searched(g8));
    }
    fs::path other;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path() != file)
            other = e.path();
    ASSERT_FALSE(other.empty());
    writeAll(file, good);
    fs::copy_file(file, other, fs::copy_options::overwrite_existing);
    {
        PlanCache cache(dir);
        EXPECT_FALSE(cache.lookup(key(8), g8, out));
        EXPECT_EQ(cache.stats().diskRejects, 1u);
        // The untouched entry still loads fine.
        EXPECT_TRUE(cache.lookup(key(7), g7, out));
        expectSamePlan(out, searched(g7));
    }
}

TEST(PlanCache, DiskPlanThatFailsToDecodeIsARejectAndAMiss)
{
    // The envelope of the entry stays valid: only the plan-format version
    // inside the payload changes, and the checksum is recomputed.
    std::string dir = scratchDir("plan_undecodable");
    const graph::Graph g = fourOps("xyzo");
    const auto cfg = hw::configCrophe64();
    sched::SchedOptions opt = cropheOptions();
    {
        PlanCache cache(dir);
        opt.planCache = &cache;
        (void)sched::scheduleGraph(g, cfg, opt);
    }
    const fs::path file = onlyFile(dir);
    std::vector<char> bytes = readAll(file);
    constexpr std::size_t kHeader = 40;  // magic, version, key, size
    bytes[kHeader] ^= 0x7f;
    u64 sum = 1469598103934665603ull;  // FNV-1a of the payload
    for (std::size_t i = kHeader; i + 8 < bytes.size(); ++i) {
        sum ^= static_cast<u8>(bytes[i]);
        sum *= 1099511628211ull;
    }
    for (int i = 0; i < 8; ++i)
        bytes[bytes.size() - 8 + i] = static_cast<char>(sum >> (8 * i));
    writeAll(file, bytes);

    PlanCache cache(dir);
    telemetry::SearchTelemetry search;
    opt.planCache = &cache;
    opt.search = &search;
    const sched::Schedule warm = sched::scheduleGraph(g, cfg, opt);
    PlanCacheStats st = cache.stats();
    EXPECT_EQ(st.hits, 0u);
    EXPECT_EQ(st.diskHits, 0u);
    EXPECT_EQ(st.diskRejects, 1u);
    EXPECT_EQ(st.misses, 1u);
    // The search's plan is a new entry, and it replaces the file.
    EXPECT_EQ(st.insertions, 1u);
    EXPECT_EQ(st.diskWrites, 1u);
    EXPECT_EQ(search.planHits(), 0u);
    EXPECT_EQ(search.planMisses(), 1u);
    expectSamePlan(warm, searched(g));

    // The rewritten file loads.
    PlanCache fresh(dir);
    opt.planCache = &fresh;
    opt.search = nullptr;
    (void)sched::scheduleGraph(g, cfg, opt);
    EXPECT_EQ(fresh.stats().diskHits, 1u);
    EXPECT_EQ(fresh.stats().diskRejects, 0u);
}

TEST(PlanCache, DirFromEnv)
{
    ::setenv("CROPHE_PLAN_CACHE", "/tmp/crophe-env-dir", 1);
    EXPECT_EQ(PlanCache::dirFromEnv(), "/tmp/crophe-env-dir");
    ::unsetenv("CROPHE_PLAN_CACHE");
    EXPECT_EQ(PlanCache::dirFromEnv(), "");
}

TEST(PlanCache, GraphsDifferingOnlyInOpIdsGetTheirOwnPlans)
{
    // The same ops and edges, added in two orders: op 1 is z in the first
    // graph and y in the second. A key over a canonical order would give
    // both one entry, and the second caller a schedule over the first
    // graph's op ids.
    const graph::Graph xzyo = fourOps("xzyo");
    const graph::Graph xyzo = fourOps("xyzo");
    auto cfg = hw::configCrophe64();
    PlanCache cache;
    sched::SchedOptions opt = cropheOptions();
    opt.planCache = &cache;
    const sched::Schedule cold_a = sched::scheduleGraph(xzyo, cfg, opt);
    const sched::Schedule cold_b = sched::scheduleGraph(xyzo, cfg, opt);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().insertions, 2u);

    const sched::Schedule warm_a = sched::scheduleGraph(xzyo, cfg, opt);
    const sched::Schedule warm_b = sched::scheduleGraph(xyzo, cfg, opt);
    EXPECT_EQ(cache.stats().hits, 2u);
    expectSameGraph(warm_a.graph, xzyo);
    expectSameGraph(warm_b.graph, xyzo);
    expectSamePlan(warm_a, cold_a);
    expectSamePlan(warm_b, cold_b);
}

TEST(PlanCache, ACopyWithAnyOpFieldOrEdgeChangedMisses)
{
    const graph::Graph base = fourOps("xyzo");
    auto cfg = hw::configCrophe64();
    PlanCache cache;
    sched::SchedOptions opt = cropheOptions();
    opt.planCache = &cache;
    (void)sched::scheduleGraph(base, cfg, opt);
    u64 misses = cache.stats().misses;
    auto misses_once = [&](const graph::Graph &g) {
        (void)sched::scheduleGraph(g, cfg, opt);
        return cache.stats().misses == ++misses;
    };

    // An exact copy hits: the key is a function of the graph alone. So
    // does a rebuild with nothing changed, so each edit below is all
    // that tells its graph from base.
    (void)sched::scheduleGraph(graph::Graph(base), cfg, opt);
    (void)sched::scheduleGraph(withOpEdited(base, 1, [](graph::Op &) {}), cfg,
                               opt);
    EXPECT_EQ(cache.stats().hits, 2u);

    using Edit = std::function<void(graph::Op &)>;
    const std::vector<std::pair<const char *, Edit>> edits = {
        {"kind", [](graph::Op &op) { op.kind = graph::OpKind::EwAdd; }},
        {"label", [](graph::Op &op) { op.label += "'"; }},
        {"n", [](graph::Op &op) { op.n *= 2; }},
        {"n1", [](graph::Op &op) { op.n1 = 64; }},
        {"n2", [](graph::Op &op) { op.n2 = 64; }},
        {"limbsIn", [](graph::Op &op) { ++op.limbsIn; }},
        {"limbsOut", [](graph::Op &op) { ++op.limbsOut; }},
        {"beta", [](graph::Op &op) { ++op.beta; }},
        {"inputWords", [](graph::Op &op) { ++op.inputWords; }},
        {"outputWords", [](graph::Op &op) { ++op.outputWords; }},
        {"auxWords", [](graph::Op &op) { ++op.auxWords; }},
        {"auxKey", [](graph::Op &op) { op.auxKey = "ptx:probe"; }},
        {"flops", [](graph::Op &op) { ++op.flops; }},
        {"streamAxes",
         [](graph::Op &op) { op.streamAxes.push_back(graph::StreamAxis::Limb); }},
        {"orientationSwitch",
         [](graph::Op &op) { op.orientationSwitch = !op.orientationSwitch; }},
    };
    for (const auto &[field, edit] : edits)
        EXPECT_TRUE(misses_once(withOpEdited(base, 1, edit)))  // the EwMul y
            << field;

    // base's edges are x->y, x->z, y->z, z->o: (0,1), (0,2), (1,2), (2,3).
    EXPECT_TRUE(misses_once(withEdges(base, {{0, 1}, {0, 2}, {1, 2}, {2, 3},
                                             {1, 3}})))
        << "one more edge";
    EXPECT_TRUE(misses_once(withEdges(base, {{0, 2}, {0, 1}, {1, 2}, {2, 3}})))
        << "x's consumers in another order";
    EXPECT_TRUE(misses_once(withEdges(base, {{0, 1}, {1, 2}, {0, 2}, {2, 3}})))
        << "z's producers in another order";
    EXPECT_EQ(cache.stats().hits, 2u);
}

/**
 * The bit-identity contract (DESIGN.md §8): a cache-hit schedule and a
 * pruned search must be byte-equal to a cold full search, for real
 * workloads, at any thread count.
 */
class PlanIdentity : public testing::TestWithParam<u32>
{
};

/** Each segment of @p w scheduled by scheduleGraph, one memo for all. */
std::vector<sched::Schedule>
segmentSchedules(const graph::Workload &w, const hw::HwConfig &cfg,
                 sched::SchedOptions opt)
{
    sched::GroupMemo memo;
    opt.memo = &memo;
    std::vector<sched::Schedule> out;
    for (const auto &seg : w.segments)
        out.push_back(sched::scheduleGraph(seg.graph, cfg, opt));
    return out;
}


TEST_P(PlanIdentity, CacheHitMatchesColdSearchByteForByte)
{
    ThreadPool::setGlobalThreads(GetParam());
    auto cfg = hw::configCrophe64();
    for (const char *name : {"bootstrap", "resnet20"}) {
        SCOPED_TRACE(std::string(name) + " @ " +
                     std::to_string(GetParam()) + " threads");
        WorkloadOptions wopt;
        wopt.rotMode = RotMode::MinKs;
        graph::Workload w =
            graph::buildWorkload(name, graph::paramsArk(), wopt);

        // Cold: what scheduleWorkload does, one segment at a time.
        const std::vector<sched::Schedule> cold_segs =
            segmentSchedules(w, cfg, cropheOptions());
        sched::WorkloadResult cold =
            sched::aggregateWorkload(w, cfg, cold_segs, 1);

        PlanCache cache;
        sched::SchedOptions opt = cropheOptions();
        opt.planCache = &cache;
        sched::WorkloadResult fill = sched::scheduleWorkload(w, cfg, opt);
        sched::WorkloadResult warm = sched::scheduleWorkload(w, cfg, opt);

        EXPECT_GT(cache.stats().hits, 0u);
        EXPECT_EQ(workloadResultBytes(fill), workloadResultBytes(cold));
        EXPECT_EQ(workloadResultBytes(warm), workloadResultBytes(cold));

        // Every segment's hit names the same graph as its cold search.
        const u64 misses = cache.stats().misses;
        const std::vector<sched::Schedule> warm_segs =
            segmentSchedules(w, cfg, opt);
        EXPECT_EQ(cache.stats().misses, misses);
        for (std::size_t i = 0; i < w.segments.size(); ++i) {
            SCOPED_TRACE(w.segments[i].name);
            expectSamePlan(warm_segs[i], cold_segs[i]);
        }
    }
}

TEST_P(PlanIdentity, DiskWarmScheduleMatchesColdSchedule)
{
    ThreadPool::setGlobalThreads(GetParam());
    // Parameterizations run concurrently under ctest -j; keep their disk
    // tiers disjoint.
    std::string dir =
        scratchDir("plan_sched_disk_t" + std::to_string(GetParam()));
    auto cfg = hw::configCrophe64();
    graph::Graph g = graph::buildHMult(graph::paramsArk(), 15);

    sched::Schedule cold = sched::scheduleGraph(g, cfg, cropheOptions());
    {
        PlanCache cache(dir);
        sched::SchedOptions opt = cropheOptions();
        opt.planCache = &cache;
        (void)sched::scheduleGraph(g, cfg, opt);
        EXPECT_GT(cache.stats().diskWrites, 0u);
    }
    PlanCache cache(dir);
    sched::SchedOptions opt = cropheOptions();
    opt.planCache = &cache;
    sched::Schedule warm = sched::scheduleGraph(g, cfg, opt);
    EXPECT_GT(cache.stats().diskHits, 0u);
    expectSamePlan(warm, cold);
}

TEST_P(PlanIdentity, NttDecomposedPlanReadsBackOverItsRewrittenGraph)
{
    ThreadPool::setGlobalThreads(GetParam());
    // Figure 11's CROPHE-64 at 64 MB: the bootstrap's EvalMod segment
    // schedules best on a four-step rewrite of its NTTs.
    const auto design =
        baselines::withSram(baselines::designByName("CROPHE-64"), 64.0);
    const graph::Workload w =
        graph::buildBootstrapping(design.params, WorkloadOptions{});
    const graph::Graph *g = nullptr;
    for (const auto &seg : w.segments)
        if (seg.name == "EvalMod")
            g = &seg.graph;
    ASSERT_NE(g, nullptr);

    const sched::Schedule cold =
        sched::scheduleGraph(*g, design.cfg, sched::SchedOptions{});
    ASSERT_NE(cold.nttN1, 0u);
    expectSameGraph(cold.graph,
                    sched::rewriteNttDecomposition(*g, cold.nttN1));

    std::string dir =
        scratchDir("plan_ntt_disk_t" + std::to_string(GetParam()));
    sched::SchedOptions opt;
    {
        PlanCache cache(dir);
        opt.planCache = &cache;
        (void)sched::scheduleGraph(*g, design.cfg, opt);
    }
    PlanCache cache(dir);
    opt.planCache = &cache;
    const sched::Schedule warm = sched::scheduleGraph(*g, design.cfg, opt);
    EXPECT_EQ(cache.stats().diskHits, 1u);
    EXPECT_EQ(cache.stats().misses, 0u);
    EXPECT_EQ(warm.nttN1, cold.nttN1);
    expectSamePlan(warm, cold);

    // Memory hits hand out the rewrite the disk load built, not a new one.
    const sched::Schedule hit1 = sched::scheduleGraph(*g, design.cfg, opt);
    const sched::Schedule hit2 = sched::scheduleGraph(*g, design.cfg, opt);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(&hit1.graph.ops(), &hit2.graph.ops());
    EXPECT_EQ(&hit1.graph.ops(), &warm.graph.ops());
    EXPECT_EQ(hit1.groups.get(), warm.groups.get());
    expectSamePlan(hit2, cold);
}

/** Expect every field of two simulations to match exactly. */
void
expectSameSimStats(const sim::SimStats &a, const sim::SimStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dramWords, b.dramWords);
    EXPECT_EQ(a.sramWords, b.sramWords);
    EXPECT_EQ(a.nocWords, b.nocWords);
    EXPECT_EQ(a.transposeWords, b.transposeWords);
    EXPECT_EQ(a.flops, b.flops);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.peBusy, b.peBusy);
    EXPECT_EQ(a.dramRowHits, b.dramRowHits);
    EXPECT_EQ(a.dramRowMisses, b.dramRowMisses);
}

TEST(PlanCache, PoolThreadsSimulateOneSharedHit)
{
    // Every thread's hit shares one groups object and the caller's graph;
    // simulating them all at once must match a cold search's simulation.
    ThreadPool::setGlobalThreads(8);
    const graph::Graph g = graph::buildHMult(graph::paramsArk(), 8);
    const auto cfg = hw::configCrophe64();
    const sched::Schedule cold = searched(g);
    const sim::SimStats cold_sim = sim::simulateSchedule(cold, cfg);

    PlanCache cache;
    sched::SchedOptions opt = cropheOptions();
    opt.planCache = &cache;
    (void)sched::scheduleGraph(g, cfg, opt);
    constexpr u64 kThreads = 8;
    std::vector<sched::Schedule> hits(kThreads);
    std::vector<sim::SimStats> sims(kThreads);
    parallelFor(0, kThreads, [&](u64 i) {
        hits[i] = sched::scheduleGraph(g, cfg, opt);
        sims[i] = sim::simulateSchedule(hits[i], cfg);
    });
    EXPECT_EQ(cache.stats().hits, kThreads);
    for (u64 i = 0; i < kThreads; ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(hits[i].groups.get(), hits[0].groups.get());
        expectSamePlan(hits[i], cold);
        expectSameSimStats(sims[i], cold_sim);
    }
}

INSTANTIATE_TEST_SUITE_P(Threads, PlanIdentity, testing::Values(1u, 8u),
                         [](const auto &info) {
                             return "threads" +
                                    std::to_string(info.param);
                         });

}  // namespace
}  // namespace crophe::plan
