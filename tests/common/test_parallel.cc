#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"

namespace crophe {
namespace {

/** Restore the global pool configuration after each test. */
class ParallelTest : public ::testing::Test
{
  protected:
    void TearDown() override { ThreadPool::setGlobalThreads(0); }
};

TEST_F(ParallelTest, PoolRunsEveryChunkExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);
    constexpr u32 kChunks = 100;
    std::vector<std::atomic<u32>> hits(kChunks);
    pool.run(kChunks, [&](u32 c) { hits[c].fetch_add(1); });
    for (u32 c = 0; c < kChunks; ++c)
        EXPECT_EQ(hits[c].load(), 1u) << "chunk " << c;
}

TEST_F(ParallelTest, ZeroAndOneChunkAreHandled)
{
    ThreadPool pool(3);
    u32 calls = 0;
    pool.run(0, [&](u32) { ++calls; });
    EXPECT_EQ(calls, 0u);
    pool.run(1, [&](u32 c) {
        EXPECT_EQ(c, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1u);
}

TEST_F(ParallelTest, ParallelForCoversRangeOnceAnyThreadCount)
{
    for (u32 threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        constexpr u64 kN = 10000;
        std::vector<u32> hits(kN, 0);
        parallelFor(17, kN, [&](u64 i) { hits[i] += 1; });
        for (u64 i = 0; i < kN; ++i)
            EXPECT_EQ(hits[i], i >= 17 ? 1u : 0u) << "i=" << i;
    }
}

TEST_F(ParallelTest, ParallelForRangeChunksAreDisjointAndOrdered)
{
    ThreadPool::setGlobalThreads(8);
    constexpr u64 kN = 1000;
    std::vector<u32> hits(kN, 0);
    parallelForRange(0, kN, [&](u64 b, u64 e) {
        ASSERT_LT(b, e);
        for (u64 i = b; i < e; ++i)
            hits[i] += 1;
    });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0u), kN);
}

TEST_F(ParallelTest, ResultsBitIdenticalAcrossThreadCounts)
{
    constexpr u64 kN = 4096;
    auto compute = [&](u32 threads) {
        ThreadPool::setGlobalThreads(threads);
        std::vector<double> out(kN);
        parallelFor(0, kN, [&](u64 i) {
            double x = static_cast<double>(i) * 0.3183098861837907;
            out[i] = x * x + 1.0 / (x + 1.0);
        });
        return out;
    };
    auto serial = compute(1);
    for (u32 threads : {2u, 3u, 8u})
        EXPECT_EQ(compute(threads), serial) << threads << " threads";
}

TEST_F(ParallelTest, LowestIndexExceptionPropagates)
{
    ThreadPool::setGlobalThreads(4);
    for (int repeat = 0; repeat < 20; ++repeat) {
        std::atomic<u32> ran{0};
        try {
            parallelFor(0, 16, [&](u64 i) {
                ran.fetch_add(1);
                if (i == 3 || i == 7)
                    throw std::runtime_error("boom " + std::to_string(i));
            });
            FAIL() << "exception was swallowed";
        } catch (const std::runtime_error &e) {
            // Deterministic choice: always the lowest failing index.
            EXPECT_STREQ(e.what(), "boom 3");
        }
        // Every index still ran (side effects match a clean run).
        EXPECT_EQ(ran.load(), 16u);
    }
}

TEST_F(ParallelTest, NestedParallelForCompletes)
{
    ThreadPool::setGlobalThreads(4);
    constexpr u64 kOuter = 12, kInner = 64;
    std::vector<std::vector<u64>> m(kOuter);
    parallelFor(0, kOuter, [&](u64 i) {
        m[i].assign(kInner, 0);
        parallelFor(0, kInner, [&](u64 j) { m[i][j] = i * 1000 + j; });
    });
    for (u64 i = 0; i < kOuter; ++i)
        for (u64 j = 0; j < kInner; ++j)
            EXPECT_EQ(m[i][j], i * 1000 + j);
}

TEST_F(ParallelTest, GlobalThreadOverrideWinsOverEnv)
{
    ThreadPool::setGlobalThreads(3);
    EXPECT_EQ(ThreadPool::globalThreads(), 3u);
    EXPECT_EQ(ThreadPool::global().threads(), 3u);
    ThreadPool::setGlobalThreads(0);  // back to env / hardware default
    EXPECT_GE(ThreadPool::globalThreads(), 1u);
}

}  // namespace
}  // namespace crophe
