#ifndef CROPHE_SERVE_DISPATCHER_H_
#define CROPHE_SERVE_DISPATCHER_H_

/**
 * @file
 * The online dispatcher: a virtual-time discrete-event loop that admits
 * a seeded arrival trace, batches compatible requests (same catalog
 * template content hash — and by construction the same hw::configDigest,
 * since one dispatcher serves one config), schedules each template once
 * through the plan cache, and models accelerator occupancy from the
 * cycle-level simulator's latencies (DESIGN.md §11).
 *
 * Service model. The first time a template is dispatched, its segments
 * are scheduled (through the plan cache when configured, with the
 * anytime deadlineSeconds fallback on misses) and run through
 * sim::simulateSchedule once. That yields per-template
 *   cold = Σ_seg sim_seconds + (reps-1) × warm_seg
 *   warm = Σ_seg reps × warm_seg
 * where warm_seg scales the simulated time by the scheduler's
 * warm/cold cycle ratio (aux constants resident on chip). A batch of k
 * requests occupies the accelerator for first + (k-1) × warm seconds,
 * where first is warm when the previous batch ran the same template
 * (aux still resident) and cold otherwise.
 *
 * Planning latency. Real search wall-clock cannot appear in a
 * deterministic virtual timeline, so plan-cache misses charge a
 * *virtual* planning latency of planSecondsPerOp × template ops, once
 * per template, before its first batch computes. Cache hits charge
 * nothing — this is how a warm plan cache buys lower tail latency in a
 * reproducible way. With planSecondsPerOp = 0 a warm-cache run is
 * byte-identical to a cold one modulo the plan.cache.* counters.
 *
 * Determinism contract: arrivals, admission, queueing, batching and
 * occupancy all evolve in virtual time from deterministic inputs, so a
 * fixed seed gives byte-identical results at any --threads value; the
 * thread pool only accelerates the schedule searches inside
 * scheduleGraph (themselves bit-deterministic, DESIGN.md §7).
 */

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "fault/fault_plan.h"
#include "hw/config.h"
#include "plan/plan_cache.h"
#include "pod/pod.h"
#include "serve/admission.h"
#include "serve/catalog.h"
#include "serve/queue.h"
#include "serve/recovery.h"
#include "serve/request.h"
#include "serve/traffic.h"
#include "telemetry/trace_recorder.h"

namespace crophe::serve {

/** Per-template service model (simulated once, reused every batch). */
struct ServiceTimes
{
    double coldSeconds = 0.0;  ///< first execution, aux fetched cold
    double warmSeconds = 0.0;  ///< steady-state repeat, aux resident
    double planSeconds = 0.0;  ///< virtual planning charge (miss only)
    bool planCacheHit = false;
};

/** Dispatcher knobs. */
struct ServeOptions
{
    Policy policy = Policy::Edf;
    u64 maxBatch = 8;
    AdmissionOptions admission;
    /**
     * Virtual planning latency per graph op charged when a template's
     * schedule misses the plan cache (see file doc). 0 = free planning.
     */
    double planSecondsPerOp = 0.0;
    /**
     * Anytime-search budget for cache-miss schedule searches
     * (SchedOptions::deadlineSeconds). Nonzero values make the *search
     * result* wall-clock dependent, so determinism tests keep this 0.
     */
    double searchDeadlineSeconds = 0.0;
    plan::PlanCache *planCache = nullptr;
    /**
     * Pod the batches dispatch to (DESIGN.md §12). chips == 1 (the
     * default) is the single-accelerator path, byte-identical to
     * pre-pod builds; chips > 1 shards each template across the pod and
     * prices batches at the pipeline's cold/steady-state times. The pod
     * digest salts the plan-cache keys, so pod and single-chip plans
     * never cross-serve.
     */
    pod::PodConfig pod;
    /**
     * Fault scenario for the run (DESIGN.md §14). Only the *timed*
     * faults matter here: chip-fail events kill in-flight batches and
     * repartition the survivors, link-degrade events reprice pod
     * transfers, and batchFailRate draws transient batch failures
     * through the seeded FaultInjector oracle (indexed by dispatch
     * sequence, so runs stay byte-identical at any thread count). An
     * empty plan leaves the dispatcher byte-identical to pre-recovery
     * builds.
     */
    fault::FaultPlan faultPlan;
    /** Retry / breaker / hedging / repartition knobs (DESIGN.md §14). */
    RecoveryOptions recovery;
    /** Optional Chrome-trace recorder (virtual microseconds). */
    telemetry::TraceRecorder *trace = nullptr;
    /** Polled each event-loop step; true stops the run (SIGINT). */
    std::function<bool()> cancelled;
    /**
     * Test hook: replaces schedule + simulate with a synthetic service
     * model, so queueing/admission behavior is hand-computable.
     */
    std::function<ServiceTimes(const RequestTemplate &)> serviceModel;
};

/** One run's outcome stream plus accelerator-level aggregates. */
struct ServeResult
{
    std::vector<RequestOutcome> outcomes;  ///< sorted by request id
    double durationSeconds = 0.0;  ///< traffic window
    double horizonSeconds = 0.0;   ///< last completion (≥ duration)
    double busySeconds = 0.0;      ///< accelerator compute occupancy
    u64 batches = 0;
    u64 batchedRequests = 0;  ///< Σ batch sizes over dispatched batches
    u64 planCompiles = 0;     ///< templates compiled during this run
    u64 planCacheHits = 0;    ///< of those, served from the plan cache
    bool truncated = false;   ///< cancelled() fired mid-run
    RecoveryStats recovery;   ///< failure-recovery activity (§14)
};

/** Virtual-time serving loop over one hardware config. See file doc. */
class Dispatcher
{
  public:
    /** @p tenants must match the specs the traffic was generated with. */
    Dispatcher(const hw::HwConfig &cfg, const Catalog &catalog,
               const std::vector<TenantSpec> &tenants, ServeOptions opt);

    /**
     * Serve @p arrivals (sorted by id, as generateTraffic returns).
     * Service models persist across run() calls on one Dispatcher;
     * admission buckets, the queue and the clock reset each run.
     */
    ServeResult run(const std::vector<Request> &arrivals,
                    double durationSeconds);

    /** Lazily compile + simulate template @p idx on the current pod
     *  shape (exposed for benches). */
    const ServiceTimes &service(u32 templateIdx);

  private:
    /** One chip group batches dispatch to. Healthy runs have a single
     *  group of every alive chip; hedging splits the pod in two. */
    struct Group
    {
        u32 chips = 1;
        double freeAt = 0.0;  ///< earliest next dispatch time
        u64 lastBatchKey = 0;
        bool haveLastKey = false;
    };

    /** Per-shape service cache: template prices depend on how many
     *  chips the dispatching group spans. Cleared on every timed fault
     *  (the pod shape or link speed changed under the plans). */
    struct ShapeCache
    {
        std::vector<std::optional<ServiceTimes>> services;
        /** Pending one-time planning charge per template (consumed by
         *  the first batch after compilation). */
        std::vector<double> planCharge;
    };

    /** One run()'s state and event handlers (dispatcher.cc). */
    struct Run;

    const ServiceTimes &serviceFor(const pod::PodConfig &groupPod,
                                   ShapeCache &cache, u32 templateIdx);
    pod::PodConfig podForGroup(const Group &g) const;
    ShapeCache &cacheFor(u32 groupChips);

    hw::HwConfig cfg_;
    const Catalog &catalog_;
    std::vector<TenantSpec> tenants_;
    ServeOptions opt_;
    /** Pod shape as of "now": deadChips/linkFraction evolve with the
     *  timed faults during run(). */
    pod::PodConfig livePod_;
    std::map<u32, ShapeCache> shapeCaches_;  ///< keyed by group chips
    u64 planCompiles_ = 0;
    u64 planCacheHits_ = 0;
};

}  // namespace crophe::serve

#endif  // CROPHE_SERVE_DISPATCHER_H_
