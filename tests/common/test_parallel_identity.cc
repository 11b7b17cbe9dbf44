#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "fhe/bconv.h"
#include "fhe/rns.h"
#include "graph/workloads.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "telemetry/search_telemetry.h"
#include "telemetry/stats_registry.h"
#include "tests/fhe/test_util.h"

/**
 * @file
 * The parallel layer's contract is bit-identity: for any thread count the
 * ciphertexts, schedules, and stats dumps must equal the 1-thread result.
 * These tests run the real pipelines at CROPHE_THREADS-equivalent 1/2/8
 * and compare byte for byte.
 */

namespace crophe {
namespace {

using fhe::BaseConverter;
using fhe::FheContext;
using fhe::Rep;
using fhe::RnsPoly;
using fhe::test::smallContext;

class ParallelIdentityTest : public ::testing::Test
{
  protected:
    void TearDown() override { ThreadPool::setGlobalThreads(0); }
};

const u32 kThreadCounts[] = {1, 2, 8};

/** All limb data of a poly, flattened for exact comparison. */
std::vector<u64>
flatten(const RnsPoly &p)
{
    std::vector<u64> out;
    for (u32 i = 0; i < p.limbCount(); ++i)
        out.insert(out.end(), p.limb(i).begin(), p.limb(i).end());
    return out;
}

TEST_F(ParallelIdentityTest, NttRoundTripAndCrossThreadIdentity)
{
    const FheContext &ctx = smallContext();
    std::vector<u64> eval_ref, coeff_ref;
    for (u32 threads : kThreadCounts) {
        ThreadPool::setGlobalThreads(threads);
        // Identical RNG seed -> identical input for every thread count.
        Rng rng(1234);
        RnsPoly p(ctx, ctx.qpBasis(ctx.maxLevel()), Rep::Coeff);
        p.uniformRandom(rng);
        auto original = flatten(p);

        p.toEval();
        auto eval = flatten(p);
        p.toCoeff();
        auto back = flatten(p);

        EXPECT_EQ(back, original) << "NTT round trip at " << threads;
        if (threads == 1) {
            eval_ref = eval;
            coeff_ref = back;
        } else {
            EXPECT_EQ(eval, eval_ref) << threads << " threads (eval)";
            EXPECT_EQ(back, coeff_ref) << threads << " threads (coeff)";
        }
    }
}

TEST_F(ParallelIdentityTest, RandomizedNttRoundTripProperty)
{
    const FheContext &ctx = smallContext();
    ThreadPool::setGlobalThreads(8);
    for (u64 seed = 1; seed <= 10; ++seed) {
        Rng rng(seed);
        RnsPoly p(ctx, ctx.qBasis(ctx.maxLevel()), Rep::Coeff);
        p.uniformRandom(rng);
        RnsPoly q = p;
        q.toEval();
        q.toCoeff();
        EXPECT_EQ(flatten(q), flatten(p)) << "seed " << seed;
    }
}

TEST_F(ParallelIdentityTest, BConvRoundTripAndCrossThreadIdentity)
{
    const FheContext &ctx = smallContext();
    std::vector<u64> ref;
    for (u32 threads : kThreadCounts) {
        ThreadPool::setGlobalThreads(threads);
        Rng rng(99);
        // Values below q0 are exactly representable in both bases, so
        // q -> p -> q must reproduce the input limb for limb.
        RnsPoly in(ctx, {0, 1}, Rep::Coeff);
        for (u64 c = 0; c < in.n(); ++c) {
            u64 v = rng.nextBounded(1u << 30);
            in.limb(0)[c] = in.mod(0).reduce64(v);
            in.limb(1)[c] = in.mod(1).reduce64(v);
        }
        BaseConverter fwd(ctx, {0, 1}, ctx.pBasis());
        BaseConverter bwd(ctx, ctx.pBasis(), {0, 1});
        RnsPoly mid = fwd.convert(in);
        RnsPoly out = bwd.convert(mid);
        EXPECT_EQ(flatten(out), flatten(in)) << threads << " threads";

        auto bytes = flatten(mid);
        if (threads == 1)
            ref = bytes;
        else
            EXPECT_EQ(bytes, ref) << threads << " threads";
    }
}

/** Schedule + simulate the bootstrap workload; return every output that
 *  must be stable: schedule stats, sim stats dump, and telemetry JSON. */
std::string
bootstrapFingerprint()
{
    graph::FheParams p = graph::paramsArk();
    graph::Workload w = graph::buildWorkload("bootstrap", p, {});
    auto cfg = hw::configCrophe64();

    sched::SchedOptions opt;
    opt.crossOpDataflow = true;
    opt.nttDecomp = true;
    opt.maxGroupOps = 8;
    telemetry::SearchTelemetry st;
    opt.search = &st;

    sched::WorkloadResult res = sched::scheduleWorkload(w, cfg, opt);

    std::ostringstream os;
    os.precision(17);
    os << res.stats.cycles << "|" << res.stats.dramWords << "|"
       << res.stats.sramWords << "|" << res.stats.nocWords << "|"
       << res.stats.flops << "|" << res.stats.auxDramWords << "\n";
    for (const auto &[name, seg] : res.perSegment)
        os << name << ":" << seg.cycles << "|" << seg.dramWords << "\n";

    // Simulator stats dump (drives the DRAM/SRAM/NoC servers and the
    // issue loop) for every segment, accumulated into one registry.
    telemetry::StatsRegistry reg;
    for (const auto &seg : w.segments) {
        sched::Schedule s = sched::scheduleGraph(seg.graph, cfg, opt);
        sim::SimStats ss = sim::simulateSchedule(s, cfg);
        ss.accumulateInto(reg);
    }
    reg.dumpText(os);

    // Search telemetry.
    os << st.candidates() << "\n";
    return os.str();
}

TEST_F(ParallelIdentityTest, BootstrapScheduleAndStatsDumpsAreByteEqual)
{
    std::string ref;
    for (u32 threads : kThreadCounts) {
        ThreadPool::setGlobalThreads(threads);
        std::string fp = bootstrapFingerprint();
        if (threads == 1)
            ref = fp;
        else
            EXPECT_EQ(fp, ref) << threads << " threads";
    }
    EXPECT_FALSE(ref.empty());
}

}  // namespace
}  // namespace crophe
