#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace crophe::sim {
namespace {

/** Pop every event, returning the ops in pop order. */
std::vector<u32>
drain(EventQueue &q)
{
    std::vector<u32> order;
    while (!q.empty())
        order.push_back(q.pop().op);
    return order;
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    q.schedule(5.0, 2);
    q.schedule(1.0, 0);
    q.schedule(3.0, 1);
    q.schedule(0.5, 7);
    EXPECT_EQ(drain(q), (std::vector<u32>{7, 0, 1, 2}));
    EXPECT_EQ(q.processed(), 4u);
}

TEST(EventQueue, StableForEqualTimestamps)
{
    // Equal times pop first-in first-out, interleaved with other times.
    EventQueue q;
    for (u32 i = 0; i < 5; ++i) {
        q.schedule(2.0, i);
        q.schedule(1.0 + 2.0 * (i % 2), 10 + i);
    }
    EXPECT_EQ(drain(q), (std::vector<u32>{10, 12, 14, 0, 1, 2, 3, 4, 11,
                                          13}));
}

TEST(EventQueue, HandlersCanScheduleMoreEvents)
{
    // Events pushed while popping join the order by (time, sequence): a
    // push at the current time lands behind everything already queued
    // for that time.
    EventQueue q;
    q.schedule(0.0, 0);
    q.schedule(0.0, 1);
    q.schedule(2.0, 2);
    std::vector<std::pair<SimTime, u32>> seen;
    while (!q.empty()) {
        const Event ev = q.pop();
        seen.push_back({ev.when, ev.op});
        if (ev.op == 0)
            q.schedule(ev.when, 3);         // same time, after op 1
        if (ev.op == 3)
            q.schedule(ev.when + 1.0, 4);   // before op 2
    }
    EXPECT_EQ(seen, (std::vector<std::pair<SimTime, u32>>{
                        {0.0, 0}, {0.0, 1}, {0.0, 3}, {1.0, 4}, {2.0, 2}}));
}

TEST(EventQueue, ProcessedCountsPopsAcrossDrains)
{
    // The counter is the simulator's sim.events: it counts popped (and
    // retired) events and keeps counting when the queue is reused after
    // draining.
    EventQueue q;
    EXPECT_EQ(q.processed(), 0u);
    q.schedule(1.0, 0);
    q.schedule(1.0, 1);
    EXPECT_EQ(q.processed(), 0u);
    q.pop();
    EXPECT_EQ(q.processed(), 1u);
    q.pop();
    EXPECT_TRUE(q.empty());
    q.schedule(0.0, 2);
    EXPECT_EQ(q.pop().when, 0.0);
    EXPECT_EQ(q.processed(), 3u);
}

TEST(EventQueue, MatchesASortedReferenceUnderRandomTraffic)
{
    // Random pushes (few distinct times, so many ties) interleaved with
    // pops that never go back in time, as in the simulator: every pop
    // must be the smallest (when, push index) still queued.
    std::mt19937 rng(7);
    EventQueue q;
    std::set<std::pair<SimTime, u32>> pending;  // (when, push index)
    u32 pushed = 0;
    SimTime now = 0.0;
    for (u32 step = 0; step < 20000; ++step) {
        if (pending.empty() || rng() % 3 != 0) {
            const SimTime when = now + static_cast<double>(rng() % 8);
            q.schedule(when, pushed);
            pending.insert({when, pushed++});
            continue;
        }
        const Event ev = q.pop();
        ASSERT_EQ(std::make_pair(ev.when, ev.op), *pending.begin());
        pending.erase(pending.begin());
        now = ev.when;
    }
    while (!q.empty()) {
        ASSERT_EQ(q.pop().op, pending.begin()->second);
        pending.erase(pending.begin());
    }
    EXPECT_TRUE(pending.empty());
    EXPECT_EQ(q.processed(), pushed);
}

TEST(EventQueue, WakeUpEarlierThanItsOpsTicketPopsFirst)
{
    // Op 0's first wake-up is its ticket; a later push at an earlier time
    // must take the ticket's place, ahead of op 1 in between.
    EventQueue q;
    q.schedule(5.0, 0);
    q.schedule(4.0, 1);
    q.schedule(3.0, 0);
    q.schedule(5.0, 0);
    std::vector<std::pair<SimTime, u32>> seen;
    while (!q.empty()) {
        const Event ev = q.pop();
        seen.push_back({ev.when, ev.op});
    }
    EXPECT_EQ(seen, (std::vector<std::pair<SimTime, u32>>{
                        {3.0, 0}, {4.0, 1}, {5.0, 0}, {5.0, 0}}));
}

TEST(EventQueue, RetireDropsEveryPendingWakeUpOfOneOp)
{
    EventQueue q;
    q.retire(3);  // nothing pending, never scheduled: a no-op
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.processed(), 0u);
    for (u32 k = 0; k < 4; ++k) {
        q.schedule(1.0 + k, 0);
        q.schedule(2.0 + k, 1);
    }
    // Op 0 has just popped; its three later wake-ups go with it.
    EXPECT_EQ(q.pop().op, 0u);
    q.retire(0);
    EXPECT_EQ(q.processed(), 4u);
    // Op 1 is retired from the heap without being popped.
    q.retire(1);
    EXPECT_EQ(q.processed(), 8u);
    EXPECT_TRUE(q.empty());
    q.retire(1);  // already retired
    EXPECT_EQ(q.processed(), 8u);
    // A retired op can be scheduled again.
    q.schedule(9.0, 0);
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.pop().when, 9.0);
    EXPECT_EQ(q.processed(), 9u);
}

TEST(EventQueue, MatchesAReferenceUnderRandomTrafficAndRetirement)
{
    // Random pushes to 16 ops (about 8 pending wake-ups each, on average),
    // pops that never go back in time, and retirements: usually of the
    // op just popped, as in the simulator, otherwise of a random op.
    // Every pop must be the reference's smallest live (when, seq).
    constexpr u32 kOps = 16;
    std::mt19937 rng(11);
    EventQueue q;
    using Wake = std::tuple<SimTime, u64, u32>;  // (when, seq, op)
    std::set<Wake> live;
    u64 pushed = 0;
    u32 earlierThanTicket = 0;
    u32 noOpRetires = 0;
    SimTime now = 0.0;
    u32 last = 0;
    auto pendingOf = [&](u32 op) {
        std::vector<Wake> out;
        for (const Wake &w : live)
            if (std::get<2>(w) == op)
                out.push_back(w);
        return out;
    };
    for (u32 step = 0; step < 40000; ++step) {
        const u32 action = rng() % 32;
        if (live.empty() || action < 20) {
            const u32 op = rng() % kOps;
            const SimTime when = now + static_cast<double>(rng() % 8);
            const auto mine = pendingOf(op);
            if (!mine.empty() && when < std::get<0>(mine.front()))
                ++earlierThanTicket;
            q.schedule(when, op);
            live.insert({when, pushed++, op});
        } else if (action < 31) {
            const Event ev = q.pop();
            ASSERT_EQ(std::make_tuple(ev.when, ev.seq, ev.op), *live.begin());
            live.erase(live.begin());
            now = ev.when;
            last = ev.op;
        } else {
            const u32 op = rng() % 2 == 0 ? last : rng() % kOps;
            const auto mine = pendingOf(op);
            const u64 before = q.processed();
            q.retire(op);
            ASSERT_EQ(q.processed(), before + mine.size());
            if (mine.empty())
                ++noOpRetires;
            for (const Wake &w : mine)
                live.erase(w);
        }
        ASSERT_EQ(q.empty(), live.empty());
    }
    while (!q.empty()) {
        const Event ev = q.pop();
        ASSERT_EQ(ev.seq, std::get<1>(*live.begin()));
        live.erase(live.begin());
    }
    EXPECT_TRUE(live.empty());
    EXPECT_EQ(q.processed(), pushed);
    // The traffic exercised both edge cases.
    EXPECT_GT(earlierThanTicket, 0u);
    EXPECT_GT(noOpRetires, 0u);
}

TEST(EventQueue, RunsMatchSinglePushesUnderRandomTraffic)
{
    // Random scheduleRun() calls (1-6 chunks, non-decreasing times with
    // ties, 1-3 ops) mixed with single pushes, pops that never go back in
    // time and retirements. The reference receives each run as its single
    // pushes, chunk by chunk and op by op, so every pop must match it
    // exactly, sequence number included, and so must empty() and
    // processed() after every step.
    constexpr u32 kOps = 12;
    std::mt19937 rng(13);
    EventQueue q;
    using Wake = std::tuple<SimTime, u64, u32>;  // (when, seq, op)
    std::set<Wake> live;
    std::deque<std::vector<SimTime>> runTimes;  // must outlive the queue
    u64 pushed = 0;
    u64 processed = 0;
    u32 singleChunkRuns = 0;
    u32 runsEarlierThanTicket = 0;
    SimTime now = 0.0;
    u32 last = 0;
    auto ticketOf = [&](u32 op) -> const Wake * {
        for (const Wake &w : live)
            if (std::get<2>(w) == op)
                return &w;
        return nullptr;
    };
    for (u32 step = 0; step < 40000; ++step) {
        const u32 action = rng() % 32;
        if (live.empty() || action < 8) {
            const u32 op = rng() % kOps;
            const SimTime when = now + static_cast<double>(rng() % 8);
            q.schedule(when, op);
            live.insert({when, pushed++, op});
        } else if (action < 18) {
            const u32 n = 1 + rng() % 6;
            std::vector<SimTime> &times = runTimes.emplace_back();
            SimTime t = now + static_cast<double>(rng() % 4);
            for (u32 c = 0; c < n; ++c) {
                times.push_back(t);
                t += static_cast<double>(rng() % 3);  // ties included
            }
            std::vector<u32> ops;
            const u32 k = 1 + rng() % 3;
            while (ops.size() < k) {
                const u32 op = rng() % kOps;
                if (std::find(ops.begin(), ops.end(), op) == ops.end())
                    ops.push_back(op);
            }
            for (u32 op : ops) {
                const Wake *ticket = ticketOf(op);
                if (ticket != nullptr && times[0] < std::get<0>(*ticket))
                    ++runsEarlierThanTicket;
            }
            singleChunkRuns += n == 1;
            q.scheduleRun(times.data(), n, ops);
            for (u32 c = 0; c < n; ++c)
                for (u32 op : ops)
                    live.insert({times[c], pushed++, op});
        } else if (action < 31) {
            const Event ev = q.pop();
            ASSERT_EQ(std::make_tuple(ev.when, ev.seq, ev.op), *live.begin());
            live.erase(live.begin());
            ++processed;
            now = ev.when;
            last = ev.op;
        } else {
            const u32 op = rng() % 2 == 0 ? last : rng() % kOps;
            q.retire(op);
            for (auto it = live.begin(); it != live.end();) {
                if (std::get<2>(*it) == op) {
                    it = live.erase(it);
                    ++processed;
                } else {
                    ++it;
                }
            }
        }
        ASSERT_EQ(q.empty(), live.empty());
        ASSERT_EQ(q.processed(), processed);
    }
    while (!q.empty()) {
        const Event ev = q.pop();
        ASSERT_EQ(std::make_tuple(ev.when, ev.seq, ev.op), *live.begin());
        live.erase(live.begin());
    }
    EXPECT_TRUE(live.empty());
    EXPECT_EQ(q.processed(), pushed);
    // The traffic exercised both edge cases.
    EXPECT_GT(singleChunkRuns, 0u);
    EXPECT_GT(runsEarlierThanTicket, 0u);
}

TEST(EventQueue, RunOfOneOpPopsItsChunksInOrder)
{
    // A run's wake-ups interleave chunk by chunk with another op's single
    // pushes at equal times, by sequence number.
    EventQueue q;
    const SimTime times[] = {1.0, 2.0, 2.0, 3.0};
    q.schedule(2.0, 1);
    const u32 op[] = {0};
    q.scheduleRun(times, 4, op);
    q.schedule(2.0, 2);
    std::vector<std::pair<SimTime, u32>> seen;
    while (!q.empty()) {
        const Event ev = q.pop();
        seen.push_back({ev.when, ev.op});
    }
    EXPECT_EQ(seen, (std::vector<std::pair<SimTime, u32>>{
                        {1.0, 0}, {2.0, 1}, {2.0, 0}, {2.0, 0}, {2.0, 2},
                        {3.0, 0}}));
    EXPECT_EQ(q.processed(), 6u);
}

TEST(EventQueueDeath, RejectsNegativeTimesAndEmptyPops)
{
    EventQueue q;
    EXPECT_DEATH(q.schedule(-1.0, 0), "negative event time");
    EXPECT_DEATH(q.pop(), "empty queue");
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
