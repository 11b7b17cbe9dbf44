#include "telemetry/search_telemetry.h"

#include <algorithm>

#include "telemetry/stats_registry.h"

namespace crophe::telemetry {

void
SearchTelemetry::recordCandidate()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++candidates_;
}

void
SearchTelemetry::recordChoice(const std::string &workload,
                              const std::string &rot_label, u32 rot_index,
                              const std::string &ks_label, u32 ks_index)
{
    std::lock_guard<std::mutex> lock(mu_);
    choices_.push_back({workload, rot_label, rot_index, ks_label, ks_index});
}

void
SearchTelemetry::addEnumeration(u64 analyzed, u64 memo_hits)
{
    std::lock_guard<std::mutex> lock(mu_);
    analyzed_ += analyzed;
    memoHits_ += memo_hits;
}

void
SearchTelemetry::addPlanLookup(bool hit)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (hit)
        ++planHits_;
    else
        ++planMisses_;
}

void
SearchTelemetry::addDeadlineHit()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++deadlineHits_;
}

u64
SearchTelemetry::planHits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return planHits_;
}

u64
SearchTelemetry::planMisses() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return planMisses_;
}

u64
SearchTelemetry::deadlineHits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return deadlineHits_;
}

u64
SearchTelemetry::candidates() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return candidates_;
}

u64
SearchTelemetry::analyzed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return analyzed_;
}

u64
SearchTelemetry::memoHits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return memoHits_;
}

std::vector<SearchChoice>
SearchTelemetry::choices() const
{
    std::vector<SearchChoice> out;
    {
        std::lock_guard<std::mutex> lock(mu_);
        out = choices_;
    }
    // Parallel design sweeps record in nondeterministic order; present a
    // canonical ordering so every reader sees the same list.
    std::stable_sort(out.begin(), out.end(),
                     [](const SearchChoice &a, const SearchChoice &b) {
                         if (a.workload != b.workload)
                             return a.workload < b.workload;
                         if (a.rotLabel != b.rotLabel)
                             return a.rotLabel < b.rotLabel;
                         return a.ksLabel < b.ksLabel;
                     });
    return out;
}

void
SearchTelemetry::registerStats(StatsRegistry &reg,
                               const std::string &prefix) const
{
    reg.counter(prefix + ".search.candidates",
                "candidate graph schedules evaluated")
        .set(candidates());
    Counter &analyzed_ctr = reg.counter(
        prefix + ".enum.analyzed",
        "unique subgraphs analyzed by the group enumerator");
    analyzed_ctr.set(analyzed());
    Counter &hits = reg.counter(
        prefix + ".enum.memoHits",
        "group analyses served from the structural-hash memo");
    hits.set(memoHits());
    // Only registered once a deadline actually truncated a search, so
    // deadline-free runs keep their pre-anytime stats dumps byte-identical.
    if (deadlineHits() > 0)
        reg.counter(prefix + ".search.deadlineHits",
                    "graph searches truncated by the anytime deadline")
            .set(deadlineHits());
    // Variant winners, as bitmask unions of the chosen enum indices —
    // order-independent across thread interleavings, and absent entirely
    // when no rotation-scheme search ran (MAD-only dumps stay unchanged).
    auto chosen = choices();
    if (!chosen.empty()) {
        u64 rot_mask = 0;
        u64 ks_mask = 0;
        for (const SearchChoice &c : chosen) {
            rot_mask |= u64{1} << c.rotIndex;
            ks_mask |= u64{1} << c.ksIndex;
        }
        reg.counter(prefix + ".rot.mode",
                    "bitmask union of chosen rotation schemes "
                    "(1<<graph::RotMode)")
            .set(rot_mask);
        reg.counter(prefix + ".ks.dataflow",
                    "bitmask union of chosen key-switch dataflows "
                    "(1<<graph::KsDataflow)")
            .set(ks_mask);
    }
    if (!reg.has(prefix + ".enum.memoHitRate")) {
        // Captures registry-owned counters, so the formula stays valid for
        // the registry's whole lifetime.
        reg.addFormula(prefix + ".enum.memoHitRate",
                       "memo hits / total candidate-group lookups",
                       [&analyzed_ctr, &hits] {
                           u64 lookups =
                               analyzed_ctr.count() + hits.count();
                           return lookups
                                      ? static_cast<double>(hits.count()) /
                                            static_cast<double>(lookups)
                                      : 0.0;
                       });
    }
}

}  // namespace crophe::telemetry
