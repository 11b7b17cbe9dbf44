#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "graph/workloads.h"
#include "sched/dataflow_report.h"
#include "sched/scheduler.h"

namespace crophe::sched {
namespace {

TEST(DataflowReport, MentionsEveryGroupAndAuxKey)
{
    graph::FheParams p = graph::paramsArk();
    graph::Graph g = graph::buildHMult(p, 10);
    auto cfg = hw::configCrophe64();
    Schedule s = scheduleGraph(g, cfg, SchedOptions{});

    std::string report = dataflowReport(s, cfg);
    EXPECT_NE(report.find("CROPHE dataflow result"), std::string::npos);
    ASSERT_FALSE(s.groups->empty());
    for (std::size_t i = 0; i < s.groups->size(); ++i)
        EXPECT_NE(report.find("spatial-group " + std::to_string(i) + ":"),
                  std::string::npos)
            << i;
    EXPECT_NE(report.find("evk:mult"), std::string::npos);
    EXPECT_NE(report.find("KSKInP"), std::string::npos);
    // Both edge realizations occur in a key-switch.
    EXPECT_NE(report.find("pipelined"), std::string::npos);
    EXPECT_NE(report.find("materialized"), std::string::npos);
}

TEST(DataflowReport, WritesToDisk)
{
    graph::FheParams p = graph::paramsArk();
    graph::Graph g = graph::buildHMult(p, 5);
    auto cfg = hw::configCrophe64();
    Schedule s = scheduleGraph(g, cfg, SchedOptions{});

    const char *path = "/tmp/crophe_dataflow_test.txt";
    ASSERT_TRUE(writeDataflowReport(s, cfg, path));
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_NE(line.find("CROPHE dataflow result"), std::string::npos);
    std::remove(path);
}

TEST(DataflowReport, RejectsUnwritablePath)
{
    graph::FheParams p = graph::paramsArk();
    graph::Graph g = graph::buildHMult(p, 3);
    auto cfg = hw::configCrophe64();
    Schedule s = scheduleGraph(g, cfg, SchedOptions{});
    EXPECT_FALSE(writeDataflowReport(s, cfg, "/nonexistent/dir/x.txt"));
}

}  // namespace
}  // namespace crophe::sched
