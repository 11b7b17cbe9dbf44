#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/workloads.h"
#include "hw/config.h"
#include "plan/serialize.h"
#include "sched/loopnest.h"
#include "sched/scheduler.h"

namespace crophe::plan {
namespace {

sched::SchedOptions
cropheOptions()
{
    sched::SchedOptions opt;
    opt.crossOpDataflow = true;
    opt.nttDecomp = true;
    opt.maxGroupOps = 8;
    return opt;
}

TEST(ByteStream, PrimitivesRoundTripExactly)
{
    ByteWriter w;
    w.putU8(0xab);
    w.putU32(0xdeadbeefu);
    w.putU64(0x0123456789abcdefull);
    w.putDouble(-0.0);
    w.putDouble(std::numeric_limits<double>::infinity());
    w.putDouble(1.0 / 3.0);
    w.putString("plan\0cache");  // embedded NUL truncated by the literal
    w.putString("");

    ByteReader r(w.bytes());
    u8 a = 0;
    u32 b = 0;
    u64 c = 0;
    double d0 = 1, d1 = 1, d2 = 1;
    std::string s0, s1;
    EXPECT_TRUE(r.getU8(a));
    EXPECT_TRUE(r.getU32(b));
    EXPECT_TRUE(r.getU64(c));
    EXPECT_TRUE(r.getDouble(d0));
    EXPECT_TRUE(r.getDouble(d1));
    EXPECT_TRUE(r.getDouble(d2));
    EXPECT_TRUE(r.getString(s0));
    EXPECT_TRUE(r.getString(s1));
    EXPECT_TRUE(r.atEnd());

    EXPECT_EQ(a, 0xab);
    EXPECT_EQ(b, 0xdeadbeefu);
    EXPECT_EQ(c, 0x0123456789abcdefull);
    EXPECT_TRUE(std::signbit(d0));
    EXPECT_TRUE(std::isinf(d1));
    EXPECT_EQ(d2, 1.0 / 3.0);
    EXPECT_EQ(s0, "plan");
    EXPECT_EQ(s1, "");
}

TEST(ByteStream, TruncationLatchesFailure)
{
    ByteWriter w;
    w.putU32(7);
    ByteReader r(w.bytes());
    u64 v = 0;
    EXPECT_FALSE(r.getU64(v));
    EXPECT_FALSE(r.ok());
    u32 u = 0;
    EXPECT_FALSE(r.getU32(u));  // stays failed even though 4 bytes exist
    EXPECT_FALSE(r.atEnd());
}

TEST(Serialize, ScheduleRoundTripsByteIdentically)
{
    graph::FheParams p = graph::paramsArk();
    graph::Graph g = graph::buildHMult(p, 15);
    sched::Schedule s =
        sched::scheduleGraph(g, hw::configCrophe64(), cropheOptions());

    std::vector<u8> bytes = scheduleBytes(s);
    sched::Schedule back;
    ByteReader r(bytes);
    ASSERT_TRUE(deserializeSchedule(r, back));
    EXPECT_TRUE(r.atEnd());

    // Re-encoding the decoded schedule must reproduce the exact bytes:
    // the serializer covers every field the cost model and the simulator
    // read, including graph adjacency order.
    EXPECT_EQ(scheduleBytes(back), bytes);
    EXPECT_EQ(back.stats.cycles, s.stats.cycles);
    EXPECT_EQ(back.stats.dramWords, s.stats.dramWords);
    EXPECT_EQ(back.warmStats.cycles, s.warmStats.cycles);
    EXPECT_EQ(back.sequence.size(), s.sequence.size());
    EXPECT_EQ(back.graph.size(), g.size());
}

TEST(Serialize, RejectsWrongVersion)
{
    graph::FheParams p = graph::paramsArk();
    graph::Graph g = graph::buildHMult(p, 4);
    sched::Schedule s =
        sched::scheduleGraph(g, hw::configCrophe64(), cropheOptions());
    std::vector<u8> bytes = scheduleBytes(s);

    // The version is the leading u32; any other value must be rejected.
    bytes[0] ^= 0xff;
    sched::Schedule back;
    ByteReader r(bytes);
    EXPECT_FALSE(deserializeSchedule(r, back));
}

TEST(Serialize, RejectsTruncationAndTrailingGarbage)
{
    graph::FheParams p = graph::paramsArk();
    graph::Graph g = graph::buildHMult(p, 4);
    sched::Schedule s =
        sched::scheduleGraph(g, hw::configCrophe64(), cropheOptions());
    std::vector<u8> bytes = scheduleBytes(s);

    std::vector<u8> cut(bytes.begin(), bytes.end() - 5);
    sched::Schedule back;
    {
        ByteReader r(cut);
        EXPECT_FALSE(deserializeSchedule(r, back));
    }

    std::vector<u8> padded = bytes;
    padded.push_back(0);
    {
        ByteReader r(padded);
        EXPECT_FALSE(deserializeSchedule(r, back));
    }
}

using Lists = std::vector<std::vector<graph::OpId>>;

graph::Graph
diamond()
{
    graph::Graph g;
    graph::OpId in = g.add(graph::makeInput(1 << 10, 4));
    graph::OpId l =
        g.add(graph::makeEwBinary(graph::OpKind::EwMul, 1 << 10, 4));
    graph::OpId r =
        g.add(graph::makeEwBinary(graph::OpKind::EwAdd, 1 << 10, 4));
    graph::OpId out = g.add(graph::makeOutput(1 << 10, 4));
    g.connect(in, l);
    g.connect(in, r);
    g.connect(l, out);
    g.connect(r, out);
    return g;
}

/**
 * Bytes of a group-less schedule over @p g whose encoded adjacency lists
 * are replaced by @p succ and @p pred. The lists sit just before the
 * schedule tail: an empty group sequence (one u64) and two SchedStats of
 * ten 8-byte fields each.
 */
std::vector<u8>
scheduleWithEdgeLists(const graph::Graph &g, const Lists &succ,
                      const Lists &pred)
{
    sched::Schedule s;
    s.graph = g;
    const std::vector<u8> bytes = scheduleBytes(s);
    std::size_t lists = 0;
    for (graph::OpId v = 0; v < g.size(); ++v)
        lists += 16 + 4 * (g.consumers(v).size() + g.producers(v).size());
    const std::size_t tail = 8 + 2 * 10 * 8;
    const std::size_t at = bytes.size() - tail - lists;

    ByteWriter w;
    for (const Lists *side : {&succ, &pred}) {
        for (const auto &l : *side) {
            w.putU64(l.size());
            for (graph::OpId id : l)
                w.putU32(id);
        }
    }
    std::vector<u8> out(bytes.begin(), bytes.begin() + at);
    out.insert(out.end(), w.bytes().begin(), w.bytes().end());
    out.insert(out.end(), bytes.end() - tail, bytes.end());
    return out;
}

bool
decodes(const std::vector<u8> &bytes, sched::Schedule &back)
{
    ByteReader r(bytes);
    return deserializeSchedule(r, back);
}

TEST(Serialize, EdgeListsRoundTripInTheirStoredOrder)
{
    graph::Graph g = diamond();
    sched::Schedule back;
    // The graph's own lists splice back in unchanged.
    ASSERT_TRUE(decodes(scheduleWithEdgeLists(g, {{1, 2}, {3}, {3}, {}},
                                              {{}, {0}, {0}, {1, 2}}),
                        back));
    EXPECT_EQ(back.graph.consumers(0), (std::vector<graph::OpId>{1, 2}));
    // Any consistent order is accepted and kept verbatim.
    ASSERT_TRUE(decodes(scheduleWithEdgeLists(g, {{2, 1}, {3}, {3}, {}},
                                              {{}, {0}, {0}, {2, 1}}),
                        back));
    EXPECT_EQ(back.graph.consumers(0), (std::vector<graph::OpId>{2, 1}));
    EXPECT_EQ(back.graph.producers(3), (std::vector<graph::OpId>{2, 1}));
}

TEST(Serialize, CorruptEdgeListsFailSoft)
{
    graph::Graph g = diamond();
    sched::Schedule back;
    // Self edge, consistent on both sides.
    EXPECT_FALSE(decodes(scheduleWithEdgeLists(g, {{0, 2}, {3}, {3}, {}},
                                               {{0}, {}, {0}, {1, 2}}),
                         back));
    // Successor id out of range.
    EXPECT_FALSE(decodes(scheduleWithEdgeLists(g, {{1, 9}, {3}, {3}, {}},
                                               {{}, {0}, {0}, {1, 2}}),
                         back));
    // Predecessor id out of range.
    EXPECT_FALSE(decodes(scheduleWithEdgeLists(g, {{1, 2}, {3}, {3}, {}},
                                               {{}, {0}, {7}, {1, 2}}),
                         back));
    // Successor edge with no matching predecessor entry.
    EXPECT_FALSE(decodes(scheduleWithEdgeLists(g, {{1, 2}, {3}, {3}, {}},
                                               {{}, {0}, {}, {1, 2}}),
                         back));
    // Same pairs on both sides, different multiplicity.
    EXPECT_FALSE(decodes(scheduleWithEdgeLists(g, {{1, 2, 2}, {3}, {3}, {}},
                                               {{}, {0}, {0}, {1, 2}}),
                         back));
    // Predecessor entry naming the wrong producer.
    EXPECT_FALSE(decodes(scheduleWithEdgeLists(g, {{1, 2}, {3}, {3}, {}},
                                               {{}, {0}, {0}, {1, 0}}),
                         back));
}

/**
 * Whether a real schedule still decodes once @p edit has changed its
 * first spatial group with an internal edge.
 */
template <typename Edit>
bool
decodesEdited(Edit edit)
{
    sched::Schedule s = sched::scheduleGraph(
        graph::buildHMult(graph::paramsArk(), 4), hw::configCrophe64(),
        cropheOptions());
    for (auto &tg : s.sequence) {
        for (auto &sg : tg.groups) {
            if (sg.internalEdges.empty())
                continue;
            edit(sg, s.graph);
            sched::Schedule back;
            return decodes(scheduleBytes(s), back);
        }
    }
    ADD_FAILURE() << "no spatial group has an internal edge";
    return false;
}

/** The lowest op of @p g that @p sg does not hold. */
graph::OpId
outsider(const sched::SpatialGroup &sg, const graph::Graph &g)
{
    graph::OpId id = 0;
    while (std::any_of(sg.allocs.begin(), sg.allocs.end(),
                       [id](const sched::OpAlloc &a) { return a.op == id; }))
        ++id;
    EXPECT_LT(id, g.size());
    return id;
}

TEST(Serialize, RejectsChunkCountsOutsideTheCap)
{
    // The simulator divides an op's words by its chunk count.
    EXPECT_FALSE(decodesEdited([](sched::SpatialGroup &sg, auto &) {
        sg.allocs[0].chunks = 0;
    }));
    EXPECT_FALSE(decodesEdited([](sched::SpatialGroup &sg, auto &) {
        sg.allocs[0].chunks = sched::kMaxChunks + 1;
    }));
    EXPECT_TRUE(decodesEdited([](sched::SpatialGroup &sg, auto &) {
        sg.allocs[0].chunks = sched::kMaxChunks;
    }));
}

TEST(Serialize, RejectsEdgesLeavingTheirGroup)
{
    // Both endpoints are ops of the graph, one of them outside the group.
    EXPECT_FALSE(decodesEdited([](sched::SpatialGroup &sg, auto &g) {
        sg.internalEdges[0].from = outsider(sg, g);
    }));
    EXPECT_FALSE(decodesEdited([](sched::SpatialGroup &sg, auto &g) {
        sg.internalEdges[0].to = outsider(sg, g);
    }));
}

TEST(Serialize, RejectsGroupsListingAConsumerBeforeItsProducer)
{
    EXPECT_FALSE(decodesEdited([](sched::SpatialGroup &sg, auto &) {
        const sched::EdgePlan &e = sg.internalEdges[0];
        auto at = [&sg](graph::OpId id) {
            return std::find_if(
                sg.allocs.begin(), sg.allocs.end(),
                [id](const sched::OpAlloc &a) { return a.op == id; });
        };
        std::iter_swap(at(e.from), at(e.to));
    }));
    // An edge from an op to itself.
    EXPECT_FALSE(decodesEdited([](sched::SpatialGroup &sg, auto &) {
        sg.internalEdges[0].from = sg.internalEdges[0].to;
    }));
    // An op listed twice has no single place in the order.
    EXPECT_FALSE(decodesEdited([](sched::SpatialGroup &sg, auto &) {
        sg.allocs.push_back(sg.allocs.front());
    }));
}

}  // namespace
}  // namespace crophe::plan
