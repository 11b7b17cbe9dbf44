#ifndef CROPHE_SERVE_ADMISSION_H_
#define CROPHE_SERVE_ADMISSION_H_

/**
 * @file
 * Admission control: per-tenant token buckets (rate contracts) plus
 * system-wide load shedding (backlog- and depth-bounded).
 *
 * The decision order is contract-friendly: a tenant over its token
 * bucket is Throttled *without* consuming a token; a request the system
 * cannot serve within shedFactor × SLA is shed as Overload *before* the
 * tenant's token is spent.
 */

#include <optional>
#include <vector>

#include "serve/request.h"
#include "serve/traffic.h"

namespace crophe::serve {

/** Classic token bucket over virtual time. */
struct TokenBucket
{
    double rate = 0.0;   ///< sustained tokens per second (0 = unlimited)
    double burst = 1.0;  ///< bucket capacity
    double tokens = 0.0;
    double last = 0.0;   ///< virtual time of the last refill

    /** Fill to burst and anchor the refill clock at @p now. */
    void reset(double now);
    /** Accrue rate × elapsed tokens (clamped to burst). */
    void refill(double now);
    /** True when a token is available after refilling at @p now. */
    bool available(double now);
    /** Consume one token (caller checked available()). */
    void take();
};

/** System-protection knobs. */
struct AdmissionOptions
{
    /**
     * Shed when the projected wait (queue backlog + residual busy time)
     * exceeds shedFactor × the tenant's SLA; 0 disables shedding.
     */
    double shedFactor = 8.0;
    /** Hard queue-depth cap; 0 = unlimited. */
    u64 maxQueue = 0;
};

/** Per-run admission state (buckets anchored at virtual time 0). */
class AdmissionController
{
  public:
    AdmissionController(const AdmissionOptions &opt,
                        const std::vector<TenantSpec> &tenants);

    /**
     * Decide on @p req at virtual time @p now given the dispatcher's
     * projected wait and queue depth. Returns nullopt on admit (the
     * tenant's token is consumed); the reason otherwise.
     */
    std::optional<RejectReason> decide(const Request &req, double now,
                                       double projectedWaitSeconds,
                                       std::size_t queueDepth);

    /**
     * Degraded-mode scaling (DESIGN.md §14): after a capacity loss the
     * dispatcher sets @p fraction = aliveChips/chips, which scales every
     * tenant's token-bucket rate and the shed threshold by the same
     * factor — the system sheds early instead of building a backlog the
     * surviving chips can never drain. Buckets refill at @p now under
     * the old rate first, so the change takes effect exactly at the
     * fault's virtual time. fraction = 1.0 restores healthy behavior.
     */
    void setCapacityFraction(double fraction, double now);

  private:
    AdmissionOptions opt_;
    std::vector<double> slaSeconds_;
    std::vector<TokenBucket> buckets_;
    std::vector<double> baseRates_;
    double capacityFraction_ = 1.0;
};

}  // namespace crophe::serve

#endif  // CROPHE_SERVE_ADMISSION_H_
