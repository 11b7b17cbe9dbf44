#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "graph/workloads.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "telemetry/search_telemetry.h"
#include "telemetry/stats_registry.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_recorder.h"
#include "tests/telemetry/json_check.h"

namespace crophe {
namespace {

sched::Schedule
referenceSchedule(const hw::HwConfig &cfg)
{
    graph::FheParams p = graph::paramsArk();
    graph::Graph g = graph::buildHMult(p, 15);
    return sched::scheduleGraph(g, cfg, sched::SchedOptions{});
}

TEST(SimTelemetry, DisabledTelemetryIsBitIdentical)
{
    auto cfg = hw::configCrophe64();
    auto sched = referenceSchedule(cfg);

    // Seed behaviour: no telemetry argument at all.
    sim::SimStats plain = sim::simulateSchedule(sched, cfg);

    telemetry::TraceRecorder rec;
    telemetry::StatsRegistry reg;
    telemetry::SimTelemetry telem;
    telem.trace = &rec;
    telem.registry = &reg;
    sim::SimStats traced = sim::simulateSchedule(sched, cfg, &telem);

    // Observation must never perturb the simulation: every field is
    // bit-identical, not merely close.
    EXPECT_EQ(plain.cycles, traced.cycles);
    EXPECT_EQ(plain.dramWords, traced.dramWords);
    EXPECT_EQ(plain.sramWords, traced.sramWords);
    EXPECT_EQ(plain.nocWords, traced.nocWords);
    EXPECT_EQ(plain.transposeWords, traced.transposeWords);
    EXPECT_EQ(plain.flops, traced.flops);
    EXPECT_EQ(plain.events, traced.events);
    EXPECT_EQ(plain.peBusy, traced.peBusy);
    EXPECT_EQ(plain.dramRowHits, traced.dramRowHits);
    EXPECT_EQ(plain.dramRowMisses, traced.dramRowMisses);

    // And a null SimTelemetry (all members null) is also the seed path.
    telemetry::SimTelemetry off;
    sim::SimStats off_stats = sim::simulateSchedule(sched, cfg, &off);
    EXPECT_EQ(plain.cycles, off_stats.cycles);
    EXPECT_EQ(plain.events, off_stats.events);
}

TEST(SimTelemetry, TraceCoversResourcesWithOrderedSpans)
{
    auto cfg = hw::configCrophe64();
    auto sched = referenceSchedule(cfg);

    telemetry::TraceRecorder rec;
    telemetry::SimTelemetry telem;
    telem.trace = &rec;
    rec.beginProcess("hmult");
    sim::simulateSchedule(sched, cfg, &telem);

    // Spans per (pid, tid): monotonically timestamped and non-overlapping
    // on every resource track (each models one serially-busy unit).
    std::map<std::pair<u32, u32>, double> last_end;
    std::set<std::string> span_tracks;
    bool saw_switch = false;
    for (const auto &ev : rec.events()) {
        if (ev.phase == 'i' && ev.name == "group switch")
            saw_switch = true;
        if (ev.phase != 'X')
            continue;
        ASSERT_GE(ev.ts, 0.0);
        ASSERT_GE(ev.dur, 0.0);
        auto key = std::make_pair(ev.pid, ev.tid);
        auto it = last_end.find(key);
        if (it != last_end.end()) {
            ASSERT_GE(ev.ts, it->second - 1e-6)
                << "overlap on " << rec.trackName(ev.pid, ev.tid);
        }
        last_end[key] = std::max(it == last_end.end() ? 0.0 : it->second,
                                 ev.ts + ev.dur);
        span_tracks.insert(rec.trackName(ev.pid, ev.tid));
    }
    // PE groups + NoC + SRAM + DRAM channels at minimum.
    EXPECT_GE(span_tracks.size(), 5u) << "only " << span_tracks.size()
                                      << " tracks carried spans";
    EXPECT_TRUE(span_tracks.count("NoC"));
    EXPECT_TRUE(span_tracks.count("SRAM banks"));
    EXPECT_TRUE(saw_switch);

    std::ostringstream os;
    rec.writeJson(os);
    EXPECT_TRUE(testing::isValidJson(os.str()));
}

TEST(SimTelemetry, RegistryTotalsMatchSimStatsExactly)
{
    auto cfg = hw::configCrophe64();
    auto sched = referenceSchedule(cfg);

    telemetry::StatsRegistry reg;
    telemetry::SimTelemetry telem;
    telem.registry = &reg;
    sim::SimStats stats = sim::simulateSchedule(sched, cfg, &telem);

    EXPECT_EQ(reg.value("sim.cycles"), stats.cycles);
    EXPECT_EQ(reg.value("sim.flops"), static_cast<double>(stats.flops));
    EXPECT_EQ(reg.value("sim.events"), static_cast<double>(stats.events));
    EXPECT_EQ(reg.value("sim.pe.busyCycles"), stats.peBusy);
    EXPECT_EQ(reg.value("sim.dram.words"),
              static_cast<double>(stats.dramWords));
    EXPECT_EQ(reg.value("sim.sram.words"),
              static_cast<double>(stats.sramWords));
    EXPECT_EQ(reg.value("sim.noc.words"),
              static_cast<double>(stats.nocWords));
    EXPECT_EQ(reg.value("sim.dram.rowHits"),
              static_cast<double>(stats.dramRowHits));
    EXPECT_EQ(reg.value("sim.dram.rowMisses"),
              static_cast<double>(stats.dramRowMisses));
    EXPECT_DOUBLE_EQ(reg.value("sim.dram.rowHitRate"),
                     stats.dramRowHitRate());

    // Accumulation: a second identical run doubles the totals.
    sim::simulateSchedule(sched, cfg, &telem);
    EXPECT_EQ(reg.value("sim.cycles"), 2.0 * stats.cycles);
    EXPECT_EQ(reg.value("sim.dram.words"),
              2.0 * static_cast<double>(stats.dramWords));

    // Group-length histogram sampled once per spatial group.
    const auto *h = dynamic_cast<const telemetry::Histogram *>(
        reg.find("sim.group.log2cycles"));
    ASSERT_NE(h, nullptr);
    EXPECT_GT(h->count(), 0u);
    EXPECT_EQ(h->count() % 2, 0u);  // two identical runs
}

TEST(SearchTelemetry, CurveTracksBestSoFar)
{
    telemetry::SearchTelemetry st;
    EXPECT_EQ(st.candidates(), 0u);
    EXPECT_DOUBLE_EQ(st.bestCost(), 0.0);
    st.recordCandidate(10.0);
    EXPECT_DOUBLE_EQ(st.bestCost(), 10.0);
    st.recordCandidate(12.0);
    EXPECT_DOUBLE_EQ(st.bestCost(), 10.0);
    st.recordCandidate(7.0);
    EXPECT_DOUBLE_EQ(st.bestCost(), 7.0);
    EXPECT_EQ(st.candidates(), 3u);

    st.addEnumeration(75, 25);
    telemetry::StatsRegistry reg;
    st.registerStats(reg);
    EXPECT_DOUBLE_EQ(reg.value("sched.enum.memoHitRate"), 0.25);
}

TEST(SearchTelemetry, SchedulerFeedsSearchObserver)
{
    graph::FheParams p = graph::paramsArk();
    graph::Graph g = graph::buildHMult(p, 15);
    auto cfg = hw::configCrophe64();

    telemetry::SearchTelemetry st;
    sched::SchedOptions opt;
    opt.search = &st;
    sched::scheduleGraph(g, cfg, opt);

    EXPECT_GT(st.candidates(), 0u);
    EXPECT_GT(st.analyzed(), 0u);
    EXPECT_GT(st.bestCost(), 0.0);

    // registerStats is idempotent and snapshots the counters.
    telemetry::StatsRegistry reg;
    st.registerStats(reg);
    st.registerStats(reg);
    EXPECT_EQ(reg.value("sched.search.candidates"),
              static_cast<double>(st.candidates()));
    EXPECT_EQ(reg.value("sched.enum.analyzed"),
              static_cast<double>(st.analyzed()));
    EXPECT_EQ(reg.value("sched.enum.memoHits"),
              static_cast<double>(st.memoHits()));
    EXPECT_DOUBLE_EQ(reg.value("sched.search.bestCycles"), st.bestCost());
    EXPECT_DOUBLE_EQ(
        reg.value("sched.enum.memoHitRate"),
        static_cast<double>(st.memoHits()) / (st.analyzed() + st.memoHits()));
}

}  // namespace
}  // namespace crophe
