#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/workloads.h"
#include "hw/config.h"
#include "plan/serialize.h"
#include "sched/loopnest.h"
#include "sched/ntt_decomp.h"
#include "sched/scheduler.h"
#include "tests/plan/plan_test_util.h"

namespace crophe::plan {
namespace {

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
    ASSERT_TRUE(deserializeSchedule(r, g, back));
    EXPECT_TRUE(r.atEnd());

    // Re-encoding the decoded schedule must reproduce the exact bytes:
    // the serializer covers every field the cost model and the simulator
    // read. The graph is rebuilt from the one the reader is handed.
    EXPECT_EQ(scheduleBytes(back), bytes);
    EXPECT_EQ(back.stats.cycles, s.stats.cycles);
    EXPECT_EQ(back.stats.dramWords, s.stats.dramWords);
    EXPECT_EQ(back.warmStats.cycles, s.warmStats.cycles);
    EXPECT_EQ(back.groups->size(), s.groups->size());
    EXPECT_EQ(back.nttN1, s.nttN1);
    expectSameGraph(back.graph, s.graph);
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
    EXPECT_FALSE(deserializeSchedule(r, g, back));
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
        EXPECT_FALSE(deserializeSchedule(r, g, back));
    }

    std::vector<u8> padded = bytes;
    padded.push_back(0);
    {
        ByteReader r(padded);
        EXPECT_FALSE(deserializeSchedule(r, g, back));
    }
}

bool
decodes(const std::vector<u8> &bytes, const graph::Graph &g,
        sched::Schedule &back)
{
    ByteReader r(bytes);
    return deserializeSchedule(r, g, back);
}

/** @p bytes with the stored NTT factor (the u64 after the version)
 *  replaced by @p n1. */
std::vector<u8>
withNttFactor(std::vector<u8> bytes, u64 n1)
{
    for (int i = 0; i < 8; ++i)
        bytes[4 + i] = static_cast<u8>(n1 >> (8 * i));
    return bytes;
}

TEST(Serialize, RejectsNttFactorsNoSweepCouldTry)
{
    const graph::Graph g = graph::buildHMult(graph::paramsArk(), 4);
    sched::Schedule back;
    // A group-less schedule decodes under any factor the sweep could
    // have tried, and its graph is the input rewritten with it.
    sched::Schedule none;
    none.groups = std::make_shared<const std::vector<sched::SpatialGroup>>();
    const std::vector<u8> empty = scheduleBytes(none);
    for (u64 n1 : {0ull, 2ull, 256ull, 1ull << 63}) {
        ASSERT_TRUE(decodes(withNttFactor(empty, n1), g, back)) << n1;
        EXPECT_EQ(back.nttN1, n1);
        expectSameGraph(back.graph,
                        n1 == 0 ? g : sched::rewriteNttDecomposition(g, n1));
    }
    for (u64 n1 : {1ull, 3ull, 6ull, 48ull, ~0ull})
        EXPECT_FALSE(decodes(withNttFactor(empty, n1), g, back)) << n1;
}

/**
 * Whether a real schedule still decodes once @p edit has changed its
 * first spatial group with an internal edge.
 */
template <typename Edit>
bool
decodesEdited(Edit edit)
{
    const graph::Graph g = graph::buildHMult(graph::paramsArk(), 4);
    sched::Schedule s =
        sched::scheduleGraph(g, hw::configCrophe64(), cropheOptions());
    std::vector<sched::SpatialGroup> groups = *s.groups;
    for (auto &sg : groups) {
        if (sg.internalEdges.empty())
            continue;
        edit(sg, s.graph);
        s.groups = std::make_shared<const std::vector<sched::SpatialGroup>>(
            std::move(groups));
        sched::Schedule back;
        return decodes(scheduleBytes(s), g, back);
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
