#include <gtest/gtest.h>

#include "common/error.h"
#include "serve/queue.h"

namespace crophe::serve {
namespace {

Request
request(u64 id, u32 tenant, double arrival, double deadline)
{
    Request r;
    r.id = id;
    r.tenant = tenant;
    r.arrival = arrival;
    r.deadline = deadline;
    return r;
}

TEST(Queue, PolicyNamesRoundTrip)
{
    EXPECT_EQ(policyByName("fifo"), Policy::Fifo);
    EXPECT_EQ(policyByName("edf"), Policy::Edf);
    EXPECT_EQ(policyByName("wfq"), Policy::Wfq);
    EXPECT_THROW(policyByName("lifo"), RecoverableError);
}

TEST(Queue, FifoPopsInArrivalOrder)
{
    RequestQueue q(Policy::Fifo, {1.0});
    // Push out of arrival order with distinct batch keys (no merging).
    q.push(request(0, 0, 0.3, 9.0), 30, 0.1, 0.3);
    q.push(request(1, 0, 0.1, 1.0), 10, 0.1, 0.3);
    q.push(request(2, 0, 0.2, 5.0), 20, 0.1, 0.3);
    EXPECT_EQ(q.popBatch(8).front().id, 1u);
    EXPECT_EQ(q.popBatch(8).front().id, 2u);
    EXPECT_EQ(q.popBatch(8).front().id, 0u);
    EXPECT_TRUE(q.empty());
}

TEST(Queue, EdfPopsByDeadline)
{
    RequestQueue q(Policy::Edf, {1.0});
    q.push(request(0, 0, 0.0, 0.9), 1, 0.1, 0.0);
    q.push(request(1, 0, 0.1, 0.3), 2, 0.1, 0.1);
    q.push(request(2, 0, 0.2, 0.6), 3, 0.1, 0.2);
    EXPECT_EQ(q.popBatch(1).front().id, 1u);
    EXPECT_EQ(q.popBatch(1).front().id, 2u);
    EXPECT_EQ(q.popBatch(1).front().id, 0u);
}

TEST(Queue, WfqSharesByWeight)
{
    // Tenant 1 has twice tenant 0's weight; with equal service
    // estimates its backlog drains two-for-one.
    RequestQueue q(Policy::Wfq, {1.0, 2.0});
    for (u64 i = 0; i < 3; ++i)
        q.push(request(i, 0, 0.0, 9.0), 100 + i, 1.0, 0.0);
    for (u64 i = 3; i < 9; ++i)
        q.push(request(i, 1, 0.0, 9.0), 100 + i, 1.0, 0.0);
    // Finish tags: tenant 0 at 1,2,3; tenant 1 at 0.5,1,...,3.
    std::vector<u32> order;
    while (!q.empty())
        order.push_back(q.popBatch(1).front().tenant);
    ASSERT_EQ(order.size(), 9u);
    u32 t1InFirstSix = 0;
    for (std::size_t i = 0; i < 6; ++i)
        t1InFirstSix += order[i] == 1 ? 1 : 0;
    EXPECT_EQ(t1InFirstSix, 4u);
    EXPECT_EQ(order.front(), 1u);
}

TEST(Queue, PopBatchGroupsSameKeyInPriorityOrder)
{
    RequestQueue q(Policy::Fifo, {1.0});
    q.push(request(0, 0, 0.0, 9.0), 7, 0.1, 0.0);
    q.push(request(1, 0, 0.1, 9.0), 8, 0.1, 0.1);  // different template
    q.push(request(2, 0, 0.2, 9.0), 7, 0.1, 0.2);
    q.push(request(3, 0, 0.3, 9.0), 7, 0.1, 0.3);
    auto batch = q.popBatch(8);
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].id, 0u);
    EXPECT_EQ(batch[1].id, 2u);
    EXPECT_EQ(batch[2].id, 3u);
    // The skipped-over request is still queued, in order.
    auto rest = q.popBatch(8);
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0].id, 1u);
    EXPECT_TRUE(q.empty());
}

TEST(Queue, PopBatchHonorsMaxBatch)
{
    RequestQueue q(Policy::Fifo, {1.0});
    for (u64 i = 0; i < 5; ++i)
        q.push(request(i, 0, 0.1 * i, 9.0), 7, 0.2, 0.1 * i);
    EXPECT_EQ(q.popBatch(2).size(), 2u);
    EXPECT_EQ(q.depth(), 3u);
    // maxBatch 0 degrades to a single pop.
    EXPECT_EQ(q.popBatch(0).size(), 1u);
}

TEST(Queue, BacklogTracksServiceEstimates)
{
    RequestQueue q(Policy::Fifo, {1.0});
    EXPECT_EQ(q.backlogSeconds(), 0.0);
    q.push(request(0, 0, 0.0, 9.0), 1, 0.25, 0.0);
    q.push(request(1, 0, 0.0, 9.0), 2, 0.5, 0.0);
    EXPECT_DOUBLE_EQ(q.backlogSeconds(), 0.75);
    q.popBatch(1);
    EXPECT_DOUBLE_EQ(q.backlogSeconds(), 0.5);
    q.popBatch(1);
    EXPECT_EQ(q.backlogSeconds(), 0.0);
}

}  // namespace
}  // namespace crophe::serve
