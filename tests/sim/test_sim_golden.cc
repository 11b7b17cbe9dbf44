#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/baseline.h"
#include "common/parallel.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "graph/workloads.h"
#include "sched/mad.h"
#include "sched/ntt_decomp.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_recorder.h"

/**
 * @file
 * Golden simulator statistics. Every statistic of a healthy (fault-free)
 * SimStats, for every segment of bootstrap, HELR and ResNet-20, is pinned
 * exactly on five schedule families:
 * - CROPHE-64 with Hybrid r=4 rotations (fused key switch);
 * - ARK+MAD;
 * - CROPHE-64 with every NTT forced through the four-step rewrite
 *   (n1=256), the only family that routes chunks through the transpose
 *   unit and places ops right-to-left;
 * - CROPHE-36 with Hybrid r=4 rotations and the output-stationary and
 *   reordered-ModUp key-switch dataflows.
 * Cycles and PE busy cycles are compared as IEEE-754 bit patterns, so any
 * change to issue order, placement or resource booking shows up here,
 * not just in the inequality checks of test_simulator.cc.
 *
 * Two more pins cover the observed paths: the FNV-1a hash of a traced
 * run's JSON, and every statistic (fault counters included) of one
 * segment under a transient fault plan.
 */

namespace crophe::sim {
namespace {

struct Golden
{
    std::string design;
    std::string workload;
    std::string segment;
    u64 cyclesBits;
    u64 events;
    u64 dramRowHits;
    u64 dramRowMisses;
    u64 dramWords;
    u64 sramWords;
    u64 nocWords;
    u64 peBusyBits;
    u64 transposeWords;
    u64 flops;
};

// clang-format off
const Golden kGolden[] = {
    {"CROPHE-64", "bootstrap", "CoeffToSlot",
     0x4130cdf414c69d45ull, 8938u, 5174u, 236298u, 61214912u, 524938496u,
     215875584u, 0x4123a36ec7545d2bull, 0u, 1279066112u},
    {"CROPHE-64", "bootstrap", "EvalMod",
     0x410dda370bd2252dull, 1956u, 634u, 59142u, 15204736u, 54459328u,
     44105728u, 0x40fbbe042a663e5bull, 0u, 168951808u},
    {"CROPHE-64", "bootstrap", "SlotToCoeff",
     0x41052c8dddf6d4b8ull, 7220u, 2807u, 32521u, 9043968u, 122679040u,
     68354048u, 0x4102450de9bd1ac3ull, 0u, 248774656u},
    {"CROPHE-64", "helr", "gradient-matvec",
     0x4130e6f61bc2206aull, 35848u, 18422u, 201866u, 56361088u, 945065920u,
     398458880u, 0x4124a157f729319eull, 0u, 1697579008u},
    {"CROPHE-64", "helr", "sigmoid",
     0x40f2940f6afebf13ull, 2013u, 252u, 18692u, 4849664u, 17038144u, 22675456u,
     0x40e46458f7a5bd22ull, 0u, 52953088u},
    {"CROPHE-64", "helr", "weight-update",
     0x40d5a5156b2dbd1dull, 261u, 189u, 7491u, 1966080u, 0u, 1966080u,
     0x408ddddddddddde3ull, 0u, 655360u},
    {"CROPHE-64", "helr", "boot-CoeffToSlot",
     0x4130cdf414c69d45ull, 8938u, 5174u, 236298u, 61214912u, 524938496u,
     215875584u, 0x4123a36ec7545d2bull, 0u, 1279066112u},
    {"CROPHE-64", "helr", "boot-EvalMod",
     0x410dda370bd2252dull, 1956u, 634u, 59142u, 15204736u, 54459328u,
     44105728u, 0x40fbbe042a663e5bull, 0u, 168951808u},
    {"CROPHE-64", "helr", "boot-SlotToCoeff",
     0x41052c8dddf6d4b8ull, 7220u, 2807u, 32521u, 9043968u, 122679040u,
     68354048u, 0x4102450de9bd1ac3ull, 0u, 248774656u},
    {"CROPHE-64", "resnet20", "conv-matmul",
     0x4133f1d3b8d99878ull, 37896u, 22582u, 223370u, 61870272u, 1126335040u,
     465829888u, 0x412ba45e724b228bull, 0u, 2018574336u},
    {"CROPHE-64", "resnet20", "relu-poly",
     0x40f68af14e1a0089ull, 2013u, 252u, 22788u, 5898240u, 19922048u, 27394048u,
     0x40e8c9a3a5dd4692ull, 0u, 63700992u},
    {"CROPHE-64", "resnet20", "boot-CoeffToSlot",
     0x4130cdf414c69d45ull, 8938u, 5174u, 236298u, 61214912u, 524938496u,
     215875584u, 0x4123a36ec7545d2bull, 0u, 1279066112u},
    {"CROPHE-64", "resnet20", "boot-EvalMod",
     0x410dda370bd2252dull, 1956u, 634u, 59142u, 15204736u, 54459328u,
     44105728u, 0x40fbbe042a663e5bull, 0u, 168951808u},
    {"CROPHE-64", "resnet20", "boot-SlotToCoeff",
     0x41052c8dddf6d4b8ull, 7220u, 2807u, 32521u, 9043968u, 122679040u,
     68354048u, 0x4102450de9bd1ac3ull, 0u, 248774656u},
    {"ARK+MAD", "bootstrap", "CoeffToSlot",
     0x4133145c8739908bull, 3083u, 4669u, 325379u, 84020608u, 602928384u,
     67764224u, 0x41151078e38e38e8ull, 0u, 1053360128u},
    {"ARK+MAD", "bootstrap", "EvalMod",
     0x410ac50a3c879f54ull, 484u, 638u, 59138u, 15204736u, 83164928u, 12320768u,
     0x40ec037777777777ull, 0u, 168951808u},
    {"ARK+MAD", "bootstrap", "SlotToCoeff",
     0x4109524995f58853ull, 3047u, 2813u, 41731u, 11403264u, 165934464u,
     17629184u, 0x40f1a40000000000ull, 0u, 219676672u},
    {"ARK+MAD", "helr", "gradient-matvec",
     0x4134c32b793af66aull, 20175u, 18429u, 286211u, 77987840u, 1097054272u,
     177471488u, 0x411e621555555555ull, 0u, 1520631808u},
    {"ARK+MAD", "helr", "sigmoid",
     0x40f1516994237f82ull, 477u, 254u, 18690u, 4849664u, 29556480u, 4653056u,
     0x40d1b77777777778ull, 0u, 52953088u},
    {"ARK+MAD", "helr", "weight-update",
     0x40d2a07e4b17e4a5ull, 133u, 189u, 7491u, 1966080u, 0u, 655360u,
     0x407aaaaaaaaaaab1ull, 0u, 655360u},
    {"ARK+MAD", "helr", "boot-CoeffToSlot",
     0x4133145c8739908bull, 3083u, 4669u, 325379u, 84020608u, 602928384u,
     67764224u, 0x41151078e38e38e8ull, 0u, 1053360128u},
    {"ARK+MAD", "helr", "boot-EvalMod",
     0x410ac50a3c879f54ull, 484u, 638u, 59138u, 15204736u, 83164928u, 12320768u,
     0x40ec037777777777ull, 0u, 168951808u},
    {"ARK+MAD", "helr", "boot-SlotToCoeff",
     0x4109524995f58853ull, 3047u, 2813u, 41731u, 11403264u, 165934464u,
     17629184u, 0x40f1a40000000000ull, 0u, 219676672u},
    {"ARK+MAD", "resnet20", "conv-matmul",
     0x4137a0b4720ffc71ull, 20175u, 22333u, 318979u, 86380352u, 1296808128u,
     216924160u, 0x41220d671c71c71dull, 0u, 1807024128u},
    {"ARK+MAD", "resnet20", "relu-poly",
     0x40f4fa67db97534cull, 477u, 254u, 22786u, 5898240u, 34799296u, 5832704u,
     0x40d55aaaaaaaaaabull, 0u, 63700992u},
    {"ARK+MAD", "resnet20", "boot-CoeffToSlot",
     0x4133145c8739908bull, 3083u, 4669u, 325379u, 84020608u, 602928384u,
     67764224u, 0x41151078e38e38e8ull, 0u, 1053360128u},
    {"ARK+MAD", "resnet20", "boot-EvalMod",
     0x410ac50a3c879f54ull, 484u, 638u, 59138u, 15204736u, 83164928u, 12320768u,
     0x40ec037777777777ull, 0u, 168951808u},
    {"ARK+MAD", "resnet20", "boot-SlotToCoeff",
     0x4109524995f58853ull, 3047u, 2813u, 41731u, 11403264u, 165934464u,
     17629184u, 0x40f1a40000000000ull, 0u, 219676672u},
    {"CROPHE-64/nttdec", "bootstrap", "CoeffToSlot",
     0x4138349962420a88ull, 12686u, 5110u, 266122u, 68817280u, 917690048u,
     191430656u, 0x411f6a9a44939d43ull, 72220672u, 1351286784u},
    {"CROPHE-64/nttdec", "bootstrap", "EvalMod",
     0x41118a3ee09a381eull, 2760u, 636u, 59140u, 15204736u, 82705216u,
     51904512u, 0x40f187cf473f8561ull, 10616832u, 179568640u},
    {"CROPHE-64/nttdec", "bootstrap", "SlotToCoeff",
     0x4110bf5e1989554full, 8492u, 2614u, 32714u, 9043968u, 209580224u,
     53411840u, 0x41024a0a29f7154eull, 15728640u, 264503296u},
    {"CROPHE-64/nttdec", "helr", "gradient-matvec",
     0x414047eb5501bb60ull, 24112u, 21238u, 362378u, 98041216u, 1718930944u,
     174915584u, 0x4122e2cdedf897e4ull, 90439680u, 1788018688u},
    {"CROPHE-64/nttdec", "helr", "sigmoid",
     0x40f6d55ce38db5f6ull, 2421u, 253u, 18691u, 4849664u, 23329536u, 23199744u,
     0x40da6d303c6d303aull, 3670016u, 56623104u},
    {"CROPHE-64/nttdec", "helr", "weight-update",
     0x40d5a5156b2dbd1dull, 261u, 189u, 7491u, 1966080u, 0u, 1966080u,
     0x408ddddddddddde3ull, 0u, 655360u},
    {"CROPHE-64/nttdec", "helr", "boot-CoeffToSlot",
     0x4138349962420a88ull, 12686u, 5110u, 266122u, 68817280u, 917690048u,
     191430656u, 0x411f6a9a44939d43ull, 72220672u, 1351286784u},
    {"CROPHE-64/nttdec", "helr", "boot-EvalMod",
     0x41118a3ee09a381eull, 2760u, 636u, 59140u, 15204736u, 82705216u,
     51904512u, 0x40f187cf473f8561ull, 10616832u, 179568640u},
    {"CROPHE-64/nttdec", "helr", "boot-SlotToCoeff",
     0x4110bf5e1989554full, 8492u, 2614u, 32714u, 9043968u, 209580224u,
     53411840u, 0x41024a0a29f7154eull, 15728640u, 264503296u},
    {"CROPHE-64/nttdec", "resnet20", "conv-matmul",
     0x41464c31080f06bdull, 24304u, 29110u, 585034u, 155585536u, 1986301632u,
     201261056u, 0x41267adcf5f0ec02ull, 102498304u, 2121072640u},
    {"CROPHE-64/nttdec", "resnet20", "relu-poly",
     0x40fb528fa525d6e6ull, 2357u, 253u, 22787u, 5898240u, 28310464u, 27000832u,
     0x40de711123e51127ull, 4194304u, 67895296u},
    {"CROPHE-64/nttdec", "resnet20", "boot-CoeffToSlot",
     0x4138349962420a88ull, 12686u, 5110u, 266122u, 68817280u, 917690048u,
     191430656u, 0x411f6a9a44939d43ull, 72220672u, 1351286784u},
    {"CROPHE-64/nttdec", "resnet20", "boot-EvalMod",
     0x41118a3ee09a381eull, 2760u, 636u, 59140u, 15204736u, 82705216u,
     51904512u, 0x40f187cf473f8561ull, 10616832u, 179568640u},
    {"CROPHE-64/nttdec", "resnet20", "boot-SlotToCoeff",
     0x4110bf5e1989554full, 8492u, 2614u, 32714u, 9043968u, 209580224u,
     53411840u, 0x41024a0a29f7154eull, 15728640u, 264503296u},
    {"CROPHE-36/ostat", "bootstrap", "CoeffToSlot",
     0x4129f6d022040604ull, 8840u, 4855u, 165769u, 75837440u, 672589632u,
     361693184u, 0x4122f4bfb3bff17eull, 0u, 2171404288u},
    {"CROPHE-36/ostat", "bootstrap", "EvalMod",
     0x4107d649489eae1cull, 2013u, 569u, 47559u, 21694272u, 65993536u,
     91422720u, 0x40fe1d27b600e31eull, 0u, 298713088u},
    {"CROPHE-36/ostat", "bootstrap", "SlotToCoeff",
     0x411762f87a25908eull, 8438u, 4470u, 74442u, 34214016u, 334620800u,
     211877888u, 0x41139fd86e068a4full, 0u, 1001390080u},
    {"CROPHE-36/ostat", "helr", "gradient-matvec",
     0x4122c438a4114faaull, 25918u, 22390u, 94218u, 45158784u, 1093115200u,
     368771072u, 0x412083bd0c5a63abull, 0u, 1925644288u},
    {"CROPHE-36/ostat", "helr", "sigmoid",
     0x40e287cab43fb2ecull, 1110u, 443u, 9477u, 4325568u, 16777024u, 13500416u,
     0x40d7cd3c30da5379ull, 0u, 62652416u},
    {"CROPHE-36/ostat", "helr", "weight-update",
     0x40c880a75bd6b810ull, 261u, 189u, 4227u, 1966080u, 0u, 1966080u,
     0x407dcdcdcdcdcdd3ull, 0u, 655360u},
    {"CROPHE-36/ostat", "helr", "boot-CoeffToSlot",
     0x4129f6d022040604ull, 8840u, 4855u, 165769u, 75837440u, 672589632u,
     361693184u, 0x4122f4bfb3bff17eull, 0u, 2171404288u},
    {"CROPHE-36/ostat", "helr", "boot-EvalMod",
     0x4107d649489eae1cull, 2013u, 569u, 47559u, 21694272u, 65993536u,
     91422720u, 0x40fe1d27b600e31eull, 0u, 298713088u},
    {"CROPHE-36/ostat", "helr", "boot-SlotToCoeff",
     0x411762f87a25908eull, 8438u, 4470u, 74442u, 34214016u, 334620800u,
     211877888u, 0x41139fd86e068a4full, 0u, 1001390080u},
    {"CROPHE-36/ostat", "resnet20", "conv-matmul",
     0x4125a7dc7bfa9041ull, 31166u, 22454u, 100234u, 48177472u, 1162716608u,
     473497600u, 0x412381b3c8629967ull, 0u, 2236153856u},
    {"CROPHE-36/ostat", "resnet20", "relu-poly",
     0x40e51ae239196a10ull, 1110u, 443u, 11461u, 5243072u, 18611776u, 16121856u,
     0x40d6acadfca44a16ull, 0u, 72876032u},
    {"CROPHE-36/ostat", "resnet20", "boot-CoeffToSlot",
     0x4129f6d022040604ull, 8840u, 4855u, 165769u, 75837440u, 672589632u,
     361693184u, 0x4122f4bfb3bff17eull, 0u, 2171404288u},
    {"CROPHE-36/ostat", "resnet20", "boot-EvalMod",
     0x4107d649489eae1cull, 2013u, 569u, 47559u, 21694272u, 65993536u,
     91422720u, 0x40fe1d27b600e31eull, 0u, 298713088u},
    {"CROPHE-36/ostat", "resnet20", "boot-SlotToCoeff",
     0x411762f87a25908eull, 8438u, 4470u, 74442u, 34214016u, 334620800u,
     211877888u, 0x41139fd86e068a4full, 0u, 1001390080u},
    {"CROPHE-36/reordup", "bootstrap", "CoeffToSlot",
     0x4129f9134b2b25caull, 8976u, 4854u, 165770u, 75837440u, 689104512u,
     379518976u, 0x41229ca71047655bull, 0u, 2171404288u},
    {"CROPHE-36/reordup", "bootstrap", "EvalMod",
     0x4108bfef02204aa3ull, 1887u, 569u, 47559u, 21694272u, 60685440u,
     81395712u, 0x40fc958b0ee38d19ull, 0u, 298713088u},
    {"CROPHE-36/reordup", "bootstrap", "SlotToCoeff",
     0x4116f6bcc8377799ull, 8578u, 4470u, 74442u, 34214016u, 338552704u,
     220921856u, 0x41129b96503d50f0ull, 0u, 1001390080u},
    {"CROPHE-36/reordup", "helr", "gradient-matvec",
     0x4122c1a4a45c31b6ull, 29190u, 22326u, 94218u, 45158464u, 1067949888u,
     408092672u, 0x411ed96da9a417b8ull, 0u, 1925644288u},
    {"CROPHE-36/reordup", "helr", "sigmoid",
     0x40e40d09a757929dull, 1754u, 442u, 9478u, 4325568u, 18873984u, 22413312u,
     0x40d5ebb1b341ed7dull, 0u, 62652416u},
    {"CROPHE-36/reordup", "helr", "weight-update",
     0x40c880a75bd6b810ull, 261u, 189u, 4227u, 1966080u, 0u, 1966080u,
     0x407dcdcdcdcdcdd3ull, 0u, 655360u},
    {"CROPHE-36/reordup", "helr", "boot-CoeffToSlot",
     0x4129f9134b2b25caull, 8976u, 4854u, 165770u, 75837440u, 689104512u,
     379518976u, 0x41229ca71047655bull, 0u, 2171404288u},
    {"CROPHE-36/reordup", "helr", "boot-EvalMod",
     0x4108bfef02204aa3ull, 1887u, 569u, 47559u, 21694272u, 60685440u,
     81395712u, 0x40fc958b0ee38d19ull, 0u, 298713088u},
    {"CROPHE-36/reordup", "helr", "boot-SlotToCoeff",
     0x4116f6bcc8377799ull, 8578u, 4470u, 74442u, 34214016u, 338552704u,
     220921856u, 0x41129b96503d50f0ull, 0u, 1001390080u},
    {"CROPHE-36/reordup", "resnet20", "conv-matmul",
     0x4124e663b26a8a02ull, 29062u, 22454u, 100234u, 48177536u, 1232183168u,
     460324864u, 0x4121555d75158389ull, 0u, 2236153856u},
    {"CROPHE-36/reordup", "resnet20", "relu-poly",
     0x40e65b42d44c09e0ull, 1562u, 443u, 11461u, 5243072u, 21232960u, 23068672u,
     0x40d7c4d1a0cf893aull, 0u, 72876032u},
    {"CROPHE-36/reordup", "resnet20", "boot-CoeffToSlot",
     0x4129f9134b2b25caull, 8976u, 4854u, 165770u, 75837440u, 689104512u,
     379518976u, 0x41229ca71047655bull, 0u, 2171404288u},
    {"CROPHE-36/reordup", "resnet20", "boot-EvalMod",
     0x4108bfef02204aa3ull, 1887u, 569u, 47559u, 21694272u, 60685440u,
     81395712u, 0x40fc958b0ee38d19ull, 0u, 298713088u},
    {"CROPHE-36/reordup", "resnet20", "boot-SlotToCoeff",
     0x4116f6bcc8377799ull, 8578u, 4470u, 74442u, 34214016u, 338552704u,
     220921856u, 0x41129b96503d50f0ull, 0u, 1001390080u},
};
// clang-format on

constexpr const char *kNttDec = "CROPHE-64/nttdec";

/** One golden family: a design, its key-switch dataflow, and whether
 *  every NTT is forced through the four-step rewrite. */
struct Family
{
    const char *label;
    const char *design;
    graph::KsDataflow ksDataflow;
    bool forcedNttDecomp;
};

const Family kFamilies[] = {
    {"CROPHE-64", "CROPHE-64", graph::KsDataflow::Fused, false},
    {"ARK+MAD", "ARK+MAD", graph::KsDataflow::Fused, false},
    {kNttDec, "CROPHE-64", graph::KsDataflow::Fused, true},
    {"CROPHE-36/ostat", "CROPHE-36", graph::KsDataflow::OutputStationary,
     false},
    {"CROPHE-36/reordup", "CROPHE-36", graph::KsDataflow::ReorderedModUp,
     false},
};

u64
bitsOf(double v)
{
    u64 b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/** Schedule every segment of @p workload in family @p f, in order. */
std::vector<std::pair<std::string, sched::Schedule>>
scheduleFamily(const Family &f, const char *workload)
{
    baselines::DesignSpec d = baselines::designByName(f.design);
    sched::SchedOptions opt;
    graph::WorkloadOptions wopt;
    if (d.mad) {
        opt = sched::madOptions();
        wopt = sched::madWorkloadOptions();
    } else {
        opt.nttDecomp = d.nttDecomp && !f.forcedNttDecomp;
        wopt.rotMode = graph::RotMode::Hybrid;
        wopt.rHyb = 4;
        wopt.ksDataflow = f.ksDataflow;
    }
    std::vector<std::pair<std::string, sched::Schedule>> out;
    graph::Workload w = graph::buildWorkload(workload, d.params, wopt);
    for (const auto &seg : w.segments) {
        graph::Graph g = f.forcedNttDecomp
                             ? sched::rewriteNttDecomposition(seg.graph, 256)
                             : seg.graph;
        out.emplace_back(seg.name, sched::scheduleGraph(g, d.cfg, opt));
    }
    return out;
}

/** The schedule of segment @p segment of @p workload in family @p f. */
sched::Schedule
scheduleSegment(const Family &f, const char *workload,
                const std::string &segment)
{
    for (auto &[name, s] : scheduleFamily(f, workload))
        if (name == segment)
            return std::move(s);
    ADD_FAILURE() << "no segment " << segment << " in " << workload;
    return {};
}

/** Schedule and simulate every segment of every golden family, in table
 *  order. */
std::vector<Golden>
simulateAll()
{
    std::vector<Golden> out;
    for (const Family &f : kFamilies) {
        const hw::HwConfig cfg = baselines::designByName(f.design).cfg;
        for (const char *wl : {"bootstrap", "helr", "resnet20"}) {
            for (const auto &[name, s] : scheduleFamily(f, wl)) {
                SimStats st = simulateSchedule(s, cfg);
                out.push_back({f.label, wl, name, bitsOf(st.cycles),
                               st.events, st.dramRowHits, st.dramRowMisses,
                               st.dramWords, st.sramWords, st.nocWords,
                               bitsOf(st.peBusy), st.transposeWords,
                               st.flops});
            }
        }
    }
    return out;
}

void
expectGolden(u32 threads)
{
    ThreadPool::setGlobalThreads(threads);
    std::vector<Golden> got = simulateAll();
    ThreadPool::setGlobalThreads(0);
    ASSERT_EQ(got.size(), std::size(kGolden));
    for (std::size_t i = 0; i < got.size(); ++i) {
        const Golden &e = kGolden[i];
        const Golden &a = got[i];
        SCOPED_TRACE(e.design + "/" + e.workload + "/" + e.segment);
        EXPECT_EQ(a.design, e.design);
        EXPECT_EQ(a.workload, e.workload);
        EXPECT_EQ(a.segment, e.segment);
        EXPECT_EQ(a.cyclesBits, e.cyclesBits);
        EXPECT_EQ(a.events, e.events);
        EXPECT_EQ(a.dramRowHits, e.dramRowHits);
        EXPECT_EQ(a.dramRowMisses, e.dramRowMisses);
        EXPECT_EQ(a.dramWords, e.dramWords);
        EXPECT_EQ(a.sramWords, e.sramWords);
        EXPECT_EQ(a.nocWords, e.nocWords);
        EXPECT_EQ(a.peBusyBits, e.peBusyBits);
        EXPECT_EQ(a.transposeWords, e.transposeWords);
        EXPECT_EQ(a.flops, e.flops);
    }
}

TEST(SimGolden, EveryStatisticAtOneThread) { expectGolden(1); }

TEST(SimGolden, EveryStatisticAtEightThreads) { expectGolden(8); }

TEST(SimGolden, ForcedNttDecompositionExercisesTheTransposeUnit)
{
    // Guards the table itself: without transpose traffic the right-to-
    // left placement and the transpose path would go unpinned.
    u64 transposed = 0;
    for (const Golden &e : kGolden)
        if (e.design == kNttDec)
            transposed += e.transposeWords;
    EXPECT_GT(transposed, 0u);
}

TEST(SimGolden, KeySwitchDataflowFamiliesPinDistinctSchedules)
{
    // Guards the table itself: if the dataflow option stopped reaching
    // the workload builder, a re-pinned table would hold the same
    // schedules twice under two names.
    std::vector<u64> ostat, reordup;
    for (const Golden &e : kGolden) {
        if (e.design == "CROPHE-36/ostat")
            ostat.push_back(e.cyclesBits);
        if (e.design == "CROPHE-36/reordup")
            reordup.push_back(e.cyclesBits);
    }
    EXPECT_FALSE(ostat.empty());
    EXPECT_NE(ostat, reordup);
}

u64
fnv1a(const std::string &s)
{
    u64 h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

TEST(SimGolden, TracedRunIsPinned)
{
    // Two traced segments in one recorder: CROPHE-64 helr sigmoid records
    // DRAM, SRAM, NoC and PE spans, its four-step rewrite also records
    // transpose-unit spans. The hash covers every span, instant and
    // counter sample with its %.17g timestamps, so a dropped, added or
    // reordered span shows up here.
    const hw::HwConfig cfg = hw::configCrophe64();
    telemetry::TraceRecorder rec;
    telemetry::SimTelemetry telem;
    telem.trace = &rec;
    SimStats transposed;
    for (const Family &f : {kFamilies[0], kFamilies[2]}) {
        const sched::Schedule s = scheduleSegment(f, "helr", "sigmoid");
        rec.beginProcess(std::string(f.label) + "/sigmoid");
        transposed = simulateSchedule(s, cfg, &telem);
    }
    EXPECT_GT(transposed.transposeWords, 0u);
    // Guards the pin itself: every resource's spans are in the hash.
    std::set<std::string> tracks;
    for (const auto &ev : rec.events())
        if (ev.phase == 'X')
            tracks.insert(rec.trackName(ev.pid, ev.tid).substr(0, 5));
    EXPECT_EQ(tracks, (std::set<std::string>{"DRAM ", "NoC", "PE gr",
                                             "SRAM ", "Trans"}));
    std::ostringstream os;
    rec.writeJson(os);
    EXPECT_EQ(rec.events().size(), 14596u);
    EXPECT_EQ(fnv1a(os.str()), 0x9225feac316c5599ull);
}

TEST(SimGolden, FaultedRunIsPinned)
{
    // Every statistic of one segment under transient DRAM errors, stalled
    // channels and NoC link failures: pins each fault draw's order and
    // the latency it adds, which the healthy table cannot see. The
    // retries and reroutes cost this segment cycles (its healthy row is
    // 0x4130e6f61bc2206a).
    const fault::FaultInjector faults(fault::FaultPlan::parse(
        "seed=7,dram-err=1e-3,stalled-channels=2,noc-fail=1e-3"));
    const hw::HwConfig cfg = hw::configCrophe64();
    const SimStats st = simulateSchedule(
        scheduleSegment(kFamilies[0], "helr", "gradient-matvec"), cfg,
        nullptr, &faults);
    EXPECT_TRUE(st.faultsEnabled);
    EXPECT_EQ(bitsOf(st.cycles), 0x4130e73e502fe63aull);
    EXPECT_EQ(st.events, 35848u);
    EXPECT_EQ(st.dramRowHits, 18422u);
    EXPECT_EQ(st.dramRowMisses, 201866u);
    EXPECT_EQ(st.dramWords, 56361088u);
    EXPECT_EQ(st.sramWords, 945065920u);
    EXPECT_EQ(st.nocWords, 398458880u);
    EXPECT_EQ(bitsOf(st.peBusy), 0x4124a157f729319eull);
    EXPECT_EQ(st.transposeWords, 0u);
    EXPECT_EQ(st.flops, 1697579008u);
    EXPECT_EQ(st.faultDramEcc, 10u);
    EXPECT_EQ(st.faultDramRetried, 12u);
    EXPECT_EQ(st.faultDramRetries, 12u);
    // Seed 7 stalls two pseudo-channels that no stream of this segment
    // maps to.
    EXPECT_EQ(st.faultDramStalls, 0u);
    EXPECT_EQ(st.faultNocReroutes, 32u);
}

}  // namespace
}  // namespace crophe::sim
