/**
 * @file
 * Self-tests of the benchmark's own code: order statistics, the model
 * accuracy formulas, seeded op sequences and the output checks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>

#include "bench_stats.h"
#include "sched/scheduler.h"
#include "workloads.h"

using namespace perfbench;

TEST(Percentile, NearestRank)
{
    std::vector<double> v(100);
    std::iota(v.begin(), v.end(), 1.0);
    std::reverse(v.begin(), v.end());
    EXPECT_EQ(percentile(v, 50), 50.0);
    EXPECT_EQ(percentile(v, 90), 90.0);
    EXPECT_EQ(percentile(v, 100), 100.0);
    EXPECT_EQ(percentile({7.0}, 90), 7.0);
    EXPECT_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 50), 2.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Percentile, TenBeyondRule)
{
    EXPECT_EQ(samplesBeyond(100, 90), 10u);
    EXPECT_EQ(samplesBeyond(99, 90), 9u);
    EXPECT_EQ(samplesBeyond(109, 90), 10u);
    EXPECT_EQ(tailPercentile(100), 90u);
    EXPECT_EQ(tailPercentile(99), 89u);
    EXPECT_EQ(tailPercentile(2000), 99u);
    EXPECT_EQ(tailPercentile(11), 9u);
    EXPECT_EQ(tailPercentile(10), 0u);
    for (std::size_t n = 11; n < 3000; ++n) {
        unsigned p = tailPercentile(n);
        EXPECT_GE(samplesBeyond(n, p), 10u) << n;
        if (p < 99) {
            EXPECT_LT(samplesBeyond(n, p + 1), 10u) << n;
        }
    }
}

TEST(Percentile, FastestPerInput)
{
    // Inputs 1 and 2 repeat; input 3 is timed once and keeps its sample.
    EXPECT_EQ(fastestPerInput({5.0, 2.0, 7.0, 4.0, 9.0}, {1, 2, 1, 2, 3}),
              (std::vector<double>{5.0, 2.0, 5.0, 2.0, 9.0}));
    EXPECT_EQ(fastestPerInput({3.0, 1.0}, {0, 1}),
              (std::vector<double>{3.0, 1.0}));
    EXPECT_THROW(fastestPerInput({1.0}, {}), std::invalid_argument);
}

TEST(ModelFormulas, HandComputed)
{
    EXPECT_DOUBLE_EQ(geomean({1.0, 4.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({2.0, 8.0, 4.0}), 4.0);
    EXPECT_THROW(geomean({1.0, 0.0}), std::invalid_argument);

    // |ln 2| and |ln 1/2| average to ln 2: error 2 - 1.
    EXPECT_DOUBLE_EQ(modelErr({2.0, 1.0}, {1.0, 2.0}), 1.0);
    EXPECT_NEAR(modelErr({1.1, 1.0}, {1.0, 1.0}), std::sqrt(1.1) - 1.0,
                1e-15);
    EXPECT_DOUBLE_EQ(modelErr({3.0}, {3.0}), 0.0);

    // Pair 1 picks 1.1 against a best of 1.0; pair 2 picks 2.0 against
    // 1.0: geomean(1.1, 2.0) - 1.
    EXPECT_NEAR(pickRegret({{1.0, 1.1, 1.2}, {2.0, 2.0, 1.0}}, {1, 0}),
                std::sqrt(2.2) - 1.0, 1e-15);
    EXPECT_DOUBLE_EQ(pickRegret({{1.0, 1.1}}, {0}), 0.0);
}

TEST(OpSequence, SameSeedSameDrawOtherSeedDiffers)
{
    Deck a(7, 36), b(7, 36), c(8, 36);
    std::vector<std::uint64_t> sa, sb, sc;
    for (std::uint64_t i = 0; i < 36 * 5 + 3; ++i) {
        sa.push_back(a.at(i));
        sb.push_back(b.at(i));
        sc.push_back(c.at(i));
    }
    EXPECT_EQ(sa, sb);
    EXPECT_NE(sa, sc);
    // Every full block covers the population once.
    for (std::size_t blk = 0; blk < 5; ++blk) {
        std::set<std::uint64_t> seen(sa.begin() + blk * 36,
                                     sa.begin() + (blk + 1) * 36);
        EXPECT_EQ(seen.size(), 36u);
    }
    // Random access gives the same draws as a sequential walk.
    Deck d(7, 36);
    EXPECT_EQ(d.at(100), sa[100]);
    EXPECT_EQ(d.at(3), sa[3]);
}

TEST(OpSequence, SameSeedSameDigest)
{
    std::vector<SearchPoint> points = searchPopulation();
    ASSERT_EQ(points.size(), 252u);
    Tracer tracer;
    auto digest_of = [&](std::uint64_t seed) {
        Deck deck(seed, points.size());
        Digest d;
        for (std::uint64_t i = 0; i < 2; ++i) {
            SearchRun r = runSearchPoint(points[deck.at(i)], tracer);
            EXPECT_TRUE(checkSearchRun(r));
            digestSearchRun(r, d);
        }
        return d.value();
    };
    EXPECT_EQ(digest_of(11), digest_of(11));
}

TEST(OutputChecks, SearchRunRejectsBrokenOutputs)
{
    SearchRun good;
    good.cycles = 1e6;
    good.flops = 100;
    good.graphFlops = 100;
    EXPECT_TRUE(checkSearchRun(good));

    SearchRun rewritten = good;  // NTT decomposition adds twiddle work
    rewritten.flops = 102;
    EXPECT_TRUE(checkSearchRun(rewritten));

    SearchRun bad = good;
    bad.degraded = true;
    EXPECT_FALSE(checkSearchRun(bad));
    bad = good;
    bad.flops = 99;
    EXPECT_FALSE(checkSearchRun(bad));
    bad = good;
    bad.cycles = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(checkSearchRun(bad));
    bad = good;
    bad.cycles = 0.0;
    EXPECT_FALSE(checkSearchRun(bad));
}

TEST(OutputChecks, CellRunRejectsMissingPlanAndFlopMismatch)
{
    Tracer tracer;
    std::vector<Cell> cells = buildCells(tracer, Phase::Setup);
    ASSERT_EQ(cells.size(), 36u);
    EXPECT_EQ(pairCount(cells), 24u);
    const Cell &cell = cells[0];
    ASSERT_GT(cell.workload.segments.size(), 1u);

    // A cache holding every segment but the first.
    plan::PlanCache partial("", 4096);
    sched::SchedOptions opt = cell.opt;
    opt.planCache = &partial;
    for (std::size_t i = 1; i < cell.workload.segments.size(); ++i)
        sched::scheduleGraph(cell.workload.segments[i].graph, cell.cfg, opt);
    CellRun missing = simulateCell(cell, partial, tracer);
    EXPECT_EQ(missing.planHits + 1, missing.segments);
    EXPECT_FALSE(checkCellRun(missing));

    // The miss above inserted the missing plan: now every lookup hits.
    CellRun warm = simulateCell(cell, partial, tracer);
    EXPECT_TRUE(checkCellRun(warm));
    EXPECT_EQ(warm.simCycles, missing.simCycles);

    CellRun bad = warm;
    bad.flopMismatches = 1;
    EXPECT_FALSE(checkCellRun(bad));
    bad = warm;
    bad.simCycles = std::nan("");
    EXPECT_FALSE(checkCellRun(bad));
}

TEST(OutputChecks, InferRunRejectsOneSlotOff)
{
    Tracer tracer;
    auto bench = buildFheBench(5, tracer, Phase::Setup);
    crophe::Rng rng(9);
    std::vector<double> x = drawVector(rng, kDim);
    InferRun r = runInference(*bench, 3, x, tracer);
    ASSERT_EQ(r.got.size(), bench->ctx->n() / 2);
    EXPECT_EQ(r.nttLimbs, 1145u);
    EXPECT_TRUE(checkInferRun(r));

    InferRun off = r;
    off.got[17] = off.want[17] + std::ldexp(1.0, -8);
    EXPECT_FALSE(checkInferRun(off));

    InferRun near = r;
    near.got[17] = near.want[17] + std::ldexp(1.0, -11);
    EXPECT_TRUE(checkInferRun(near));

    InferRun truncated = r;
    truncated.got.pop_back();
    EXPECT_FALSE(checkInferRun(truncated));

    // Same inputs and encryption seed, same decrypted bits.
    EXPECT_EQ(runInference(*bench, 3, x, tracer).got, r.got);
}
