#include <gtest/gtest.h>

#include "baselines/baseline.h"
#include "graph/workloads.h"
#include "sched/mad.h"
#include "sched/scheduler.h"

namespace crophe::sched {
namespace {

using graph::FheParams;
using graph::Graph;
using graph::RotMode;

/** Property sweeps: invariants that must hold on every configuration. */
class ConfigSweep : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ConfigSweep, ScheduleInvariants)
{
    hw::HwConfig cfg = hw::configByName(GetParam());
    FheParams p = graph::paramsArk();
    Graph g = graph::buildHMult(p, 12);

    // MAD on specialized designs.
    SchedOptions opt = cfg.homogeneous ? SchedOptions{} : madOptions();
    Schedule s = scheduleGraph(g, cfg, opt);

    // Basic sanity on every design point.
    EXPECT_GT(s.stats.cycles, 0.0);
    EXPECT_GT(s.stats.flops, 0u);
    EXPECT_GE(s.stats.dramWords, s.stats.auxDramWords);
    // Warm repetitions never cost more than cold ones.
    EXPECT_LE(s.warmStats.cycles, s.stats.cycles * 1.0001);
    EXPECT_LE(s.warmStats.auxDramWords, s.stats.auxDramWords);
    // The bounding time covers both compute and off-chip transfer.
    EXPECT_GE(s.stats.cycles,
              static_cast<double>(s.stats.flops) / cfg.multsPerCycle() *
                  0.99);
    EXPECT_GE(s.stats.cycles, dramCycles(cfg, s.stats.dramWords) * 0.99);

    // Every op of the (possibly rewritten) graph is scheduled once.
    u32 covered = 0;
    for (const auto &grp : *s.groups)
        covered += static_cast<u32>(grp.allocs.size());
    EXPECT_EQ(covered, s.graph.size());
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, ConfigSweep,
                         ::testing::Values("bts", "ark", "crophe64", "cl+",
                                           "sharp", "crophe36"));

/** SRAM monotonicity: shrinking the buffer never makes a design faster. */
class SramMonotonic : public ::testing::TestWithParam<double>
{
};

TEST_P(SramMonotonic, SmallerSramNeverFaster)
{
    double mb = GetParam();
    FheParams p = graph::paramsSharp();
    graph::WorkloadOptions wopt;
    wopt.rotMode = RotMode::Hoisting;
    auto w = graph::buildBootstrapping(p, wopt);

    SchedOptions opt;
    auto big = scheduleWorkload(w, hw::configCrophe36(), opt);
    auto small =
        scheduleWorkload(w, hw::withSramMB(hw::configCrophe36(), mb), opt);
    EXPECT_GE(small.stats.cycles, big.stats.cycles * 0.999) << mb << " MB";
    EXPECT_GE(small.stats.dramWords, big.stats.dramWords) << mb << " MB";
}

INSTANTIATE_TEST_SUITE_P(Capacities, SramMonotonic,
                         ::testing::Values(120.0, 90.0, 60.0, 45.0, 30.0));

/** Hybrid r_hyb sweep: every candidate yields a valid graph whose evk key
 *  count interpolates between Min-KS and Hoisting. */
class RHybSweep : public ::testing::TestWithParam<u32>
{
};

TEST_P(RHybSweep, GraphShapeInterpolates)
{
    u32 r = GetParam();
    FheParams p = graph::paramsArk();
    const u32 n1 = 16;
    Graph g = graph::buildPtMatVecMult(p, 10, n1, 2, RotMode::Hybrid, r);
    EXPECT_EQ(g.topoOrder().size(), g.size());

    std::set<std::string> keys;
    for (const auto &op : g.ops())
        if (op.kind == graph::OpKind::KskInnerProd &&
            op.auxKey.find("rot") != std::string::npos &&
            op.auxKey.find("giant") == std::string::npos)
            keys.insert(op.auxKey);
    // Baby-step keys: coarse (if any) + fine distances 1..r-1.
    u32 coarse = (n1 + r - 1) / r - 1;
    u32 expect = (r > 1 ? r - 1 : 0) + (coarse > 0 ? 1 : 0);
    EXPECT_EQ(keys.size(), expect) << "r_hyb=" << r;
}

INSTANTIATE_TEST_SUITE_P(Strides, RHybSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

/** Workload sweep: scheduling must succeed and CROPHE must never lose to
 *  MAD on its own hardware at reference capacity. */
class WorkloadSweep : public ::testing::TestWithParam<const char *>
{
};

TEST_P(WorkloadSweep, CropheNeverLosesToMadOnOwnHardware)
{
    auto mad = baselines::runDesign(
        baselines::designByName("CROPHE-hw+MAD"), GetParam());
    auto crophe =
        baselines::runDesign(baselines::designByName("CROPHE-64"),
                             GetParam());
    EXPECT_LT(crophe.stats.cycles, mad.stats.cycles) << GetParam();
    EXPECT_LE(crophe.stats.dramWords, mad.stats.dramWords) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Workloads, WorkloadSweep,
                         ::testing::Values("bootstrap", "helr", "resnet20",
                                           "resnet110"));

}  // namespace
}  // namespace crophe::sched
