#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "graph/params.h"
#include "serve/traffic.h"

namespace crophe::serve {
namespace {

Catalog
microCatalog()
{
    return buildCatalog(graph::paramsArk(), {"hmult", "hrot", "matvec"});
}

TenantSpec
tenant(const std::string &name, double rate,
       std::vector<double> mix = {1.0, 1.0, 1.0})
{
    TenantSpec t;
    t.name = name;
    t.rate = rate;
    t.slaSeconds = 0.05;
    t.mix = std::move(mix);
    return t;
}

TrafficSpec
spec(double duration, u64 seed, std::vector<TenantSpec> tenants)
{
    TrafficSpec s;
    s.durationSeconds = duration;
    s.seed = seed;
    s.tenants = std::move(tenants);
    return s;
}

TEST(Traffic, SameSeedIsBitIdentical)
{
    auto cat = microCatalog();
    auto s = spec(2.0, 99, {tenant("a", 40.0), tenant("b", 25.0)});
    auto r1 = generateTraffic(s, cat);
    auto r2 = generateTraffic(s, cat);
    ASSERT_EQ(r1.size(), r2.size());
    ASSERT_GT(r1.size(), 0u);
    for (std::size_t i = 0; i < r1.size(); ++i) {
        EXPECT_EQ(r1[i].id, r2[i].id);
        EXPECT_EQ(r1[i].tenant, r2[i].tenant);
        EXPECT_EQ(r1[i].templateIdx, r2[i].templateIdx);
        EXPECT_EQ(r1[i].arrival, r2[i].arrival);
        EXPECT_EQ(r1[i].deadline, r2[i].deadline);
    }
}

TEST(Traffic, DifferentSeedsDiffer)
{
    auto cat = microCatalog();
    auto a = generateTraffic(spec(2.0, 1, {tenant("a", 50.0)}), cat);
    auto b = generateTraffic(spec(2.0, 2, {tenant("a", 50.0)}), cat);
    bool differs = a.size() != b.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].arrival != b[i].arrival ||
                  a[i].templateIdx != b[i].templateIdx;
    EXPECT_TRUE(differs);
}

TEST(Traffic, TenantStreamsAreIndependent)
{
    // Adding a second tenant must not perturb the first one's stream.
    auto cat = microCatalog();
    auto solo = generateTraffic(spec(2.0, 7, {tenant("a", 30.0)}), cat);
    auto duo = generateTraffic(
        spec(2.0, 7, {tenant("a", 30.0), tenant("b", 80.0)}), cat);
    std::vector<Request> fromDuo;
    for (const auto &r : duo)
        if (r.tenant == 0)
            fromDuo.push_back(r);
    ASSERT_EQ(solo.size(), fromDuo.size());
    for (std::size_t i = 0; i < solo.size(); ++i) {
        EXPECT_EQ(solo[i].arrival, fromDuo[i].arrival);
        EXPECT_EQ(solo[i].templateIdx, fromDuo[i].templateIdx);
    }
}

TEST(Traffic, FixedProcessIsEvenlySpaced)
{
    auto cat = microCatalog();
    auto t = tenant("a", 10.0);
    t.process = ArrivalProcess::Fixed;
    auto r = generateTraffic(spec(1.0, 3, {t}), cat);
    ASSERT_EQ(r.size(), 9u);  // 0.1 .. 0.9
    for (std::size_t i = 0; i < r.size(); ++i)
        EXPECT_NEAR(r[i].arrival, 0.1 * (i + 1), 1e-12);
}

TEST(Traffic, IdsFollowMergedArrivalOrder)
{
    auto cat = microCatalog();
    auto r = generateTraffic(
        spec(1.0, 5, {tenant("a", 60.0), tenant("b", 60.0)}), cat);
    ASSERT_GT(r.size(), 10u);
    for (std::size_t i = 0; i < r.size(); ++i) {
        EXPECT_EQ(r[i].id, i);
        if (i > 0) {
            EXPECT_GE(r[i].arrival, r[i - 1].arrival);
        }
        EXPECT_EQ(r[i].deadline, r[i].arrival + 0.05);
    }
}

TEST(Traffic, ZeroWeightTemplateIsNeverDrawn)
{
    auto cat = microCatalog();
    auto r = generateTraffic(
        spec(4.0, 11, {tenant("a", 100.0, {1.0, 0.0, 2.0})}), cat);
    ASSERT_GT(r.size(), 100u);
    bool sawFirst = false, sawLast = false;
    for (const auto &req : r) {
        EXPECT_NE(req.templateIdx, 1u);
        sawFirst |= req.templateIdx == 0;
        sawLast |= req.templateIdx == 2;
    }
    EXPECT_TRUE(sawFirst);
    EXPECT_TRUE(sawLast);
}

TEST(Traffic, RejectsInvalidSpecs)
{
    auto cat = microCatalog();
    EXPECT_THROW(generateTraffic(spec(1.0, 1, {}), cat), RecoverableError);
    EXPECT_THROW(
        generateTraffic(spec(0.0, 1, {tenant("a", 1.0)}), cat),
        RecoverableError);
    EXPECT_THROW(
        generateTraffic(spec(1.0, 1, {tenant("a", 0.0)}), cat),
        RecoverableError);
    EXPECT_THROW(generateTraffic(spec(1.0, 1, {tenant("a", 1.0, {1.0})}),
                                 cat),
                 RecoverableError);
    EXPECT_THROW(
        generateTraffic(spec(1.0, 1, {tenant("a", 1.0, {0.0, 0.0, 0.0})}),
                        cat),
        RecoverableError);
}

TEST(Catalog, RejectsUnknownNamesAndMixes)
{
    EXPECT_THROW(buildCatalog(graph::paramsArk(), {"nope"}),
                 RecoverableError);
    EXPECT_THROW(buildCatalog(graph::paramsArk(), {}), RecoverableError);
    EXPECT_THROW(mixByName("nope"), RecoverableError);
    auto mix = mixByName("micro");
    EXPECT_EQ(mix.templates.size(), mix.weights.size());
}

TEST(Catalog, TemplatesAreHashedAndSized)
{
    auto cat = microCatalog();
    ASSERT_EQ(cat.templates.size(), 3u);
    EXPECT_EQ(cat.indexOf("hrot"), 1u);
    EXPECT_THROW(cat.indexOf("nope"), RecoverableError);
    for (const auto &t : cat.templates) {
        EXPECT_NE(t.graphHash, 0u);
        EXPECT_GT(t.ops, 0u);
    }
    // Distinct templates must get distinct batching keys.
    EXPECT_NE(cat.templates[0].graphHash, cat.templates[1].graphHash);
    EXPECT_NE(cat.templates[1].graphHash, cat.templates[2].graphHash);
}

}  // namespace
}  // namespace crophe::serve
