#include <gtest/gtest.h>

#include "sim/dram.h"
#include "sim/fifo.h"
#include "sim/noc.h"
#include "sim/sram.h"
#include "sim/transpose_unit.h"

namespace crophe::sim {
namespace {

// Regression for the row-accounting fix: every fresh row a burst touches
// is an activation (charged rowMissPenalty); only the already-open row of
// a continuing stream hits. Previously boundary crossings were counted as
// hits with zero latency.
TEST(Dram, RowBoundaryCrossingsAreMisses)
{
    DramModel dram(hw::configCrophe64());
    const u64 row = dram.rowWords();
    const double penalty = dram.rowMissPenalty();
    const double rate = dram.wordsPerCycle();

    // Cold 4-row burst: all 4 rows are activations.
    SimTime t1 = dram.access(0.0, 4 * row, /*stream=*/1);
    EXPECT_EQ(dram.rowMisses(), 4u);
    EXPECT_EQ(dram.rowHits(), 0u);
    EXPECT_DOUBLE_EQ(t1, 4.0 * penalty + 4.0 * static_cast<double>(row) /
                                             rate);

    // Continuing 2-row burst on the same stream: the open row hits, the
    // crossed boundary still activates.
    SimTime t2 = dram.access(t1, 2 * row, /*stream=*/1);
    EXPECT_EQ(dram.rowMisses(), 5u);
    EXPECT_EQ(dram.rowHits(), 1u);
    EXPECT_DOUBLE_EQ(t2, t1 + penalty + 2.0 * static_cast<double>(row) /
                                            rate);

    // Stream switch on the same pseudo-channel closes the rows: a 1-row
    // burst misses again.
    SimTime t3 = dram.access(t2, row, /*stream=*/17);  // 17 % 16 == 1
    EXPECT_EQ(dram.rowMisses(), 6u);
    EXPECT_EQ(dram.rowHits(), 1u);
    EXPECT_DOUBLE_EQ(t3, t2 + penalty + static_cast<double>(row) / rate);

    // Sub-row continuation: stays inside the open row, zero activation.
    SimTime t4 = dram.access(t3, row / 2, /*stream=*/17);
    EXPECT_EQ(dram.rowMisses(), 6u);
    EXPECT_EQ(dram.rowHits(), 2u);
    EXPECT_DOUBLE_EQ(t4, t3 + static_cast<double>(row / 2) / rate);
}

TEST(Dram, StreamSwitchesCostActivations)
{
    DramModel a(hw::configCrophe64());
    DramModel b(hw::configCrophe64());
    for (int i = 0; i < 64; ++i) {
        a.access(0.0, 4096, 0);                      // one stream
        b.access(0.0, 4096, static_cast<u32>(i % 2));  // ping-pong
    }
    EXPECT_LT(a.rowMisses(), b.rowMisses());
}

TEST(Dram, BandwidthBoundsThroughput)
{
    auto cfg = hw::configCrophe64();
    DramModel dram(cfg);
    u64 words = 1 << 24;
    SimTime t = dram.access(0.0, words, 0);
    double min_cycles = static_cast<double>(words) * cfg.wordBytes() *
                        cfg.freqGhz / cfg.dramGBs;
    // Streaming transfer time = activation latency for every row touched
    // plus the bandwidth-limited transfer itself.
    double rows = static_cast<double>(words / dram.rowWords());
    EXPECT_GE(t, min_cycles);
    EXPECT_DOUBLE_EQ(t, rows * dram.rowMissPenalty() + min_cycles);
}

TEST(Sram, CapacityAndTraffic)
{
    auto cfg = hw::configCrophe36();
    SramModel sram(cfg);
    EXPECT_EQ(sram.capacityWords(), cfg.sramWords());
    SimTime t = sram.access(0.0, 1 << 20);
    EXPECT_GT(t, 0.0);
    EXPECT_EQ(sram.totalWords(), 1ull << 20);
    // SRAM is much faster than DRAM for the same volume.
    DramModel dram(cfg);
    EXPECT_LT(t, dram.access(0.0, 1 << 20, 0));
}

TEST(Noc, HopLatencyAndSerialization)
{
    NocModel noc(hw::configCrophe64());
    SimTime one_hop = noc.transfer(0.0, 1024, 1);
    NocModel noc2(hw::configCrophe64());
    SimTime ten_hops = noc2.transfer(0.0, 1024, 10);
    EXPECT_GT(ten_hops, one_hop);
    EXPECT_NEAR(ten_hops - one_hop, 9.0, 1e-9);
}

TEST(Transpose, RoundTripTraffic)
{
    TransposeUnit tr(hw::configCrophe64());
    SimTime t = tr.transpose(0.0, 1 << 16);
    EXPECT_GT(t, 0.0);
    EXPECT_EQ(tr.totalWords(), 1ull << 16);
}

TEST(Server, FifoBandwidthSemantics)
{
    Server s(10.0);  // 10 units/cycle
    EXPECT_DOUBLE_EQ(s.serve(0.0, 100.0), 10.0);
    // Second request arrives early but queues behind the first.
    EXPECT_DOUBLE_EQ(s.serve(5.0, 50.0), 15.0);
    // Third arrives after the server idles.
    EXPECT_DOUBLE_EQ(s.serve(20.0, 10.0), 21.0);
    EXPECT_DOUBLE_EQ(s.busyCycles(), 16.0);
}

TEST(Server, FixedLatencyDelaysStart)
{
    Server s(1.0);
    EXPECT_DOUBLE_EQ(s.serve(0.0, 1.0, 40.0), 41.0);
}

TEST(Server, NonPositiveRatePanicsAtConstruction)
{
    // A zero rate used to silently serve with duration 0 — infinite
    // bandwidth. Degenerate rates must die loudly at construction.
    EXPECT_DEATH(Server s(0.0), "rate must be positive");
    EXPECT_DEATH(Server s(-1.0), "rate must be positive");
}

}  // namespace
}  // namespace crophe::sim
