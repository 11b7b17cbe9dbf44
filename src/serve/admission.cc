#include "serve/admission.h"

#include <algorithm>

namespace crophe::serve {

const char *
rejectReasonName(RejectReason reason)
{
    switch (reason) {
    case RejectReason::Throttled:
        return "throttled";
    case RejectReason::Overload:
        return "overload";
    }
    return "?";
}

void
TokenBucket::reset(double now)
{
    tokens = burst;
    last = now;
}

void
TokenBucket::refill(double now)
{
    if (now > last) {
        tokens = std::min(burst, tokens + rate * (now - last));
        last = now;
    }
}

bool
TokenBucket::available(double now)
{
    if (rate <= 0.0)
        return true;  // unlimited contract
    refill(now);
    return tokens >= 1.0;
}

void
TokenBucket::take()
{
    if (rate > 0.0)
        tokens -= 1.0;
}

AdmissionController::AdmissionController(
    const AdmissionOptions &opt, const std::vector<TenantSpec> &tenants)
    : opt_(opt)
{
    slaSeconds_.reserve(tenants.size());
    buckets_.reserve(tenants.size());
    baseRates_.reserve(tenants.size());
    for (const auto &t : tenants) {
        slaSeconds_.push_back(t.slaSeconds);
        TokenBucket b;
        b.rate = t.bucketRate;
        b.burst = std::max(1.0, t.bucketBurst);
        b.reset(0.0);
        buckets_.push_back(b);
        baseRates_.push_back(b.rate);
    }
}

void
AdmissionController::setCapacityFraction(double fraction, double now)
{
    capacityFraction_ = std::clamp(fraction, 0.0, 1.0);
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        // Accrue up to the change point at the old rate, then switch.
        buckets_[i].refill(now);
        buckets_[i].rate = baseRates_[i] * capacityFraction_;
    }
}

std::optional<RejectReason>
AdmissionController::decide(const Request &req, double now,
                            double projectedWaitSeconds,
                            std::size_t queueDepth)
{
    TokenBucket &bucket = buckets_[req.tenant];
    if (!bucket.available(now))
        return RejectReason::Throttled;
    if (opt_.maxQueue > 0 && queueDepth >= opt_.maxQueue)
        return RejectReason::Overload;
    if (opt_.shedFactor > 0.0 &&
        projectedWaitSeconds >
            opt_.shedFactor * slaSeconds_[req.tenant] * capacityFraction_)
        return RejectReason::Overload;
    bucket.take();
    return std::nullopt;
}

}  // namespace crophe::serve
