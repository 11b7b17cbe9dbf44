#ifndef CROPHE_TESTS_PLAN_PLAN_TEST_UTIL_H_
#define CROPHE_TESTS_PLAN_PLAN_TEST_UTIL_H_

/**
 * @file
 * Helpers shared by the plan-cache and serialization tests: the CROPHE
 * scheduler options they search with, and schedule comparisons that
 * cover the graph as well as the serialized bytes (a payload no longer
 * carries its graph).
 */

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "plan/serialize.h"
#include "sched/group.h"

namespace crophe::plan {

inline sched::SchedOptions
cropheOptions()
{
    sched::SchedOptions opt;
    opt.crossOpDataflow = true;
    opt.nttDecomp = true;
    opt.maxGroupOps = 8;
    return opt;
}

/** Expect every op field and both adjacency lists, in order, to match. */
inline void
expectSameGraph(const graph::Graph &a, const graph::Graph &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (graph::OpId v = 0; v < a.size(); ++v) {
        const graph::Op &x = a.op(v);
        const graph::Op &y = b.op(v);
        EXPECT_EQ(x.id, y.id) << "op " << v;
        EXPECT_EQ(x.kind, y.kind) << "op " << v;
        EXPECT_EQ(x.label, y.label) << "op " << v;
        EXPECT_EQ(x.n, y.n) << "op " << v;
        EXPECT_EQ(x.n1, y.n1) << "op " << v;
        EXPECT_EQ(x.n2, y.n2) << "op " << v;
        EXPECT_EQ(x.limbsIn, y.limbsIn) << "op " << v;
        EXPECT_EQ(x.limbsOut, y.limbsOut) << "op " << v;
        EXPECT_EQ(x.beta, y.beta) << "op " << v;
        EXPECT_EQ(x.inputWords, y.inputWords) << "op " << v;
        EXPECT_EQ(x.outputWords, y.outputWords) << "op " << v;
        EXPECT_EQ(x.auxWords, y.auxWords) << "op " << v;
        EXPECT_EQ(x.auxKey, y.auxKey) << "op " << v;
        EXPECT_EQ(x.flops, y.flops) << "op " << v;
        EXPECT_EQ(x.streamAxes, y.streamAxes) << "op " << v;
        EXPECT_EQ(x.orientationSwitch, y.orientationSwitch) << "op " << v;
        EXPECT_EQ(a.consumers(v), b.consumers(v)) << "op " << v;
        EXPECT_EQ(a.producers(v), b.producers(v)) << "op " << v;
    }
}

/** Expect the same graph and the same serialized schedule. */
inline void
expectSamePlan(const sched::Schedule &a, const sched::Schedule &b)
{
    expectSameGraph(a.graph, b.graph);
    EXPECT_EQ(scheduleBytes(a), scheduleBytes(b));
}

}  // namespace crophe::plan

#endif  // CROPHE_TESTS_PLAN_PLAN_TEST_UTIL_H_
