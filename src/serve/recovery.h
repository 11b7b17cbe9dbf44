#ifndef CROPHE_SERVE_RECOVERY_H_
#define CROPHE_SERVE_RECOVERY_H_

/**
 * @file
 * Request-level resilience primitives for the online dispatcher
 * (DESIGN.md §14): retry budgets with capped exponential backoff and a
 * per-tenant circuit breaker. Everything runs in virtual time and is
 * deterministic — the breaker's transitions are a pure function of the
 * (time, tenant, success/failure) event sequence the dispatcher feeds
 * it, which itself evolves in deterministic virtual-time order.
 *
 * Breaker state machine. Closed counts consecutive failures; at
 * `breakerThreshold` it trips to Open (new requests of the tenant are
 * rejected without consuming a token). After `breakerResetSeconds` the
 * next admission attempt half-opens the breaker: exactly one trial
 * request is admitted while any further attempts keep being rejected. A
 * trial success closes the breaker (failure counter cleared); a trial
 * failure re-opens it for another full reset interval.
 */

#include <vector>

#include "common/types.h"

namespace crophe::serve {

/** Failure-recovery knobs (all virtual-time; defaults are benign). */
struct RecoveryOptions
{
    /** Failed attempts a request may retry; past this it expires. */
    u32 maxRetries = 2;
    /** Backoff before the first retry; doubles per further retry. */
    double retryBackoffSeconds = 0.010;
    /** Backoff ceiling (caps the exponential). */
    double retryBackoffCapSeconds = 1.0;
    /** Consecutive failures that trip a tenant's breaker; 0 disables
     *  the breaker entirely. */
    u32 breakerThreshold = 0;
    /** Open-state dwell before the breaker half-opens. */
    double breakerResetSeconds = 1.0;
    /** Duplicate tail batches onto an idle second chip group. */
    bool hedge = false;
    /** Virtual downtime charged when a chip loss forces the survivors
     *  to repartition and recompile their plans. */
    double repartitionSeconds = 0.050;
};

/** Backoff before retry attempt @p attempt (1-based): base doubled per
 *  prior attempt, capped at retryBackoffCapSeconds. */
double retryBackoff(const RecoveryOptions &opt, u32 attempt);

/** Per-tenant circuit breaker. See file doc for the state machine. */
class CircuitBreaker
{
  public:
    enum class State : u8
    {
        Closed,
        Open,
        HalfOpen,
    };

    CircuitBreaker(const RecoveryOptions &opt, std::size_t tenants);

    /** True when the breaker is disabled (threshold 0): every call is a
     *  no-op and tryAdmit always passes. */
    bool disabled() const { return opt_.breakerThreshold == 0; }

    /**
     * May tenant @p tenant admit a new request at virtual time @p now?
     * Open transitions to HalfOpen once the reset timer elapsed and
     * admits that one trial; further HalfOpen attempts are rejected
     * until the trial resolves.
     */
    bool tryAdmit(u32 tenant, double now);

    /** One of the tenant's dispatched attempts failed at @p now. */
    void onFailure(u32 tenant, double now);

    /** One of the tenant's dispatched attempts completed. */
    void onSuccess(u32 tenant);

    State state(u32 tenant) const { return tenants_[tenant].state; }
    u64 trips() const { return trips_; }
    u64 halfOpens() const { return halfOpens_; }

  private:
    struct Tenant
    {
        State state = State::Closed;
        u32 consecutiveFailures = 0;
        double reopenAt = 0.0;      ///< Open -> HalfOpen time
        bool trialOutstanding = false;
    };

    RecoveryOptions opt_;
    std::vector<Tenant> tenants_;
    u64 trips_ = 0;
    u64 halfOpens_ = 0;
};

/** Run-level recovery counters (surfaced as `serve.recovery.*`). */
struct RecoveryStats
{
    u64 lostBatches = 0;    ///< batches killed mid-flight by chip loss
    u64 lostRequests = 0;   ///< requests those batches carried
    u64 replays = 0;        ///< requests re-queued after a failure
    u64 expired = 0;        ///< admitted requests that ran out of retries/SLA
    u64 batchFailures = 0;  ///< transient batch-fail draws that fired
    u64 hedgedBatches = 0;  ///< duplicate dispatches issued
    u64 hedgeWins = 0;      ///< hedged duplicates that finished first
    u64 breakerTrips = 0;
    u64 breakerHalfOpens = 0;
    u64 breakerRejected = 0;  ///< requests rejected by an open breaker
    u64 repartitions = 0;     ///< online survivor repartitions
    double downtimeSeconds = 0.0;  ///< virtual repartition downtime
    /** Timed chip-fail and link-degrade events still pending when the
     *  run ended: the last request finished before they were due. */
    u64 unfiredFaults = 0;

    /** Any recovery activity at all? Healthy runs report nothing, which
     *  keeps their stdout/stats byte-identical to pre-recovery builds. */
    bool any() const
    {
        return lostBatches != 0 || lostRequests != 0 || replays != 0 ||
               expired != 0 || batchFailures != 0 || hedgedBatches != 0 ||
               hedgeWins != 0 || breakerTrips != 0 ||
               breakerHalfOpens != 0 || breakerRejected != 0 ||
               repartitions != 0 || downtimeSeconds != 0.0 ||
               unfiredFaults != 0;
    }
};

}  // namespace crophe::serve

#endif  // CROPHE_SERVE_RECOVERY_H_
