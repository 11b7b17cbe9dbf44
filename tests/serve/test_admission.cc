#include <gtest/gtest.h>

#include "serve/admission.h"

namespace crophe::serve {
namespace {

Request
request(u64 id, u32 tenant, double arrival)
{
    Request r;
    r.id = id;
    r.tenant = tenant;
    r.arrival = arrival;
    r.deadline = arrival + 0.05;
    return r;
}

TenantSpec
tenant(double bucketRate, double bucketBurst, double sla = 0.05)
{
    TenantSpec t;
    t.name = "t";
    t.slaSeconds = sla;
    t.bucketRate = bucketRate;
    t.bucketBurst = bucketBurst;
    return t;
}

TEST(TokenBucket, RefillMathIsExact)
{
    TokenBucket b;
    b.rate = 2.0;
    b.burst = 3.0;
    b.reset(0.0);
    EXPECT_TRUE(b.available(0.0));
    b.take();
    b.take();
    b.take();
    EXPECT_FALSE(b.available(0.0));
    // 0.25 s at 2 tokens/s accrues half a token.
    EXPECT_FALSE(b.available(0.25));
    EXPECT_TRUE(b.available(0.5));
    b.take();
    EXPECT_FALSE(b.available(0.5));
    // Refill clamps at burst: after a long idle only 3 tokens exist.
    EXPECT_TRUE(b.available(100.0));
    b.take();
    b.take();
    b.take();
    EXPECT_FALSE(b.available(100.0));
}

TEST(TokenBucket, ZeroRateIsUnlimited)
{
    TokenBucket b;
    b.rate = 0.0;
    b.burst = 1.0;
    b.reset(0.0);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(b.available(0.0));
        b.take();
    }
}

TEST(Admission, ThrottlesPastTheBucket)
{
    AdmissionOptions opt;
    opt.shedFactor = 0.0;
    AdmissionController ac(opt, {tenant(2.0, 1.0)});
    EXPECT_FALSE(ac.decide(request(0, 0, 0.1), 0.1, 0.0, 0).has_value());
    auto r = ac.decide(request(1, 0, 0.2), 0.2, 0.0, 1);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, RejectReason::Throttled);
    // 2 tokens/s: a full token is back 0.5 s after the last take.
    EXPECT_FALSE(ac.decide(request(2, 0, 0.6), 0.6, 0.0, 1).has_value());
}

TEST(Admission, ShedsOnProjectedWait)
{
    AdmissionOptions opt;
    opt.shedFactor = 2.0;
    AdmissionController ac(opt, {tenant(0.0, 1.0, /*sla=*/0.05)});
    // Boundary is strict: exactly factor x SLA still admits.
    EXPECT_FALSE(ac.decide(request(0, 0, 0.0), 0.0, 0.10, 5).has_value());
    auto r = ac.decide(request(1, 0, 0.0), 0.0, 0.11, 5);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, RejectReason::Overload);
}

TEST(Admission, CapsQueueDepth)
{
    AdmissionOptions opt;
    opt.shedFactor = 0.0;
    opt.maxQueue = 2;
    AdmissionController ac(opt, {tenant(0.0, 1.0)});
    EXPECT_FALSE(ac.decide(request(0, 0, 0.0), 0.0, 0.0, 1).has_value());
    auto r = ac.decide(request(1, 0, 0.0), 0.0, 0.0, 2);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, RejectReason::Overload);
}

TEST(Admission, OverloadRejectionDoesNotSpendTheToken)
{
    AdmissionOptions opt;
    opt.shedFactor = 1.0;
    AdmissionController ac(opt, {tenant(0.0001, 1.0, 0.05)});
    // Bucket holds exactly one token (negligible refill). An overload
    // rejection must leave it for the next attempt.
    auto r = ac.decide(request(0, 0, 0.0), 0.0, 1.0, 9);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, RejectReason::Overload);
    EXPECT_FALSE(ac.decide(request(1, 0, 0.0), 0.0, 0.0, 0).has_value());
    // Now the token is gone.
    auto r2 = ac.decide(request(2, 0, 0.0), 0.0, 0.0, 0);
    ASSERT_TRUE(r2.has_value());
    EXPECT_EQ(*r2, RejectReason::Throttled);
}

}  // namespace
}  // namespace crophe::serve
