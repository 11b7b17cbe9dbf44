#include "serve/dispatcher.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "common/error.h"
#include "common/logging.h"
#include "fault/fault_injector.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"

namespace crophe::serve {

Dispatcher::Dispatcher(const hw::HwConfig &cfg, const Catalog &catalog,
                       const std::vector<TenantSpec> &tenants,
                       ServeOptions opt)
    : cfg_(cfg), catalog_(catalog), tenants_(tenants), opt_(std::move(opt))
{
    if (tenants_.empty())
        throw RecoverableError("dispatcher needs at least one tenant");
    hw::validateConfig(cfg_);
    pod::validatePod(opt_.pod);
    if (opt_.maxBatch == 0)
        opt_.maxBatch = 1;
    if (opt_.faultPlan.timedDeadChips() + opt_.pod.deadChips >=
        opt_.pod.chips)
        throw RecoverableError(
            "fault plan kills every chip of the pod: " +
            std::to_string(opt_.faultPlan.timedDeadChips()) +
            " scheduled chip failures plus " +
            std::to_string(opt_.pod.deadChips) + " dead chips leave none of " +
            std::to_string(opt_.pod.chips) + " alive");
    if (!(opt_.recovery.retryBackoffSeconds >= 0.0) ||
        !(opt_.recovery.retryBackoffCapSeconds >= 0.0) ||
        !(opt_.recovery.breakerResetSeconds >= 0.0) ||
        !(opt_.recovery.repartitionSeconds >= 0.0))
        throw RecoverableError(
            "recovery options need non-negative virtual times");
    livePod_ = opt_.pod;
}

pod::PodConfig
Dispatcher::podForGroup(const Group &g) const
{
    if (g.chips == livePod_.aliveChips())
        return livePod_;  // the whole surviving pod, dead set included
    // A hedge half is priced as its own ring of g.chips healthy chips;
    // its podDigest differs from the full pod's, so the two shapes
    // never share plan-cache entries.
    pod::PodConfig p = livePod_;
    p.chips = g.chips;
    p.deadChips = 0;
    return p;
}

Dispatcher::ShapeCache &
Dispatcher::cacheFor(u32 groupChips)
{
    ShapeCache &cache = shapeCaches_[groupChips];
    if (cache.services.size() != catalog_.templates.size()) {
        cache.services.resize(catalog_.templates.size());
        cache.planCharge.assign(catalog_.templates.size(), 0.0);
    }
    return cache;
}

const ServiceTimes &
Dispatcher::serviceFor(const pod::PodConfig &groupPod, ShapeCache &cache,
                       u32 templateIdx)
{
    if (cache.services[templateIdx].has_value())
        return *cache.services[templateIdx];
    const RequestTemplate &t = catalog_.templates[templateIdx];
    ServiceTimes st;
    if (opt_.serviceModel) {
        st = opt_.serviceModel(t);
    } else {
        sched::SchedOptions so;
        so.planCache = opt_.planCache;
        so.deadlineSeconds = opt_.searchDeadlineSeconds;
        const double hz = cfg_.freqGhz * 1e9;
        bool missed = opt_.planCache == nullptr;
        if (groupPod.aliveChips() > 1) {
            // Pod dispatch: the template's segments shard across the
            // chips and repetitions pipeline through them. cold = one
            // request through the pipeline (fill included); warm = the
            // steady-state throughput bound for back-to-back requests.
            const u64 missesBefore =
                opt_.planCache ? opt_.planCache->stats().misses : 0;
            auto pr = pod::schedulePodWorkload(t.workload, cfg_,
                                               groupPod, so);
            if (opt_.planCache &&
                opt_.planCache->stats().misses > missesBefore)
                missed = true;
            st.coldSeconds = pr.seconds;
            st.warmSeconds = pr.warmSeconds;
        } else {
            for (const auto &seg : t.workload.segments) {
                const u64 missesBefore =
                    opt_.planCache ? opt_.planCache->stats().misses : 0;
                auto sched = sched::scheduleGraph(seg.graph, cfg_, so);
                if (opt_.planCache &&
                    opt_.planCache->stats().misses > missesBefore)
                    missed = true;
                auto sim = sim::simulateSchedule(sched, cfg_);
                const double cold = sim.cycles / hz;
                // Steady-state repetitions keep resident aux on chip;
                // scale the simulated time by the scheduler's warm/cold
                // cycle ratio.
                const double ratio =
                    sched.stats.cycles > 0.0
                        ? std::min(1.0, sched.warmStats.cycles /
                                            sched.stats.cycles)
                        : 1.0;
                const double warm = cold * ratio;
                st.coldSeconds +=
                    cold + static_cast<double>(seg.repetitions - 1) * warm;
                st.warmSeconds +=
                    static_cast<double>(seg.repetitions) * warm;
            }
        }
        st.planCacheHit = !missed;
        st.planSeconds =
            missed ? opt_.planSecondsPerOp * static_cast<double>(t.ops)
                   : 0.0;
    }
    cache.services[templateIdx] = st;
    cache.planCharge[templateIdx] = st.planSeconds;
    ++planCompiles_;
    if (st.planCacheHit)
        ++planCacheHits_;
    return *cache.services[templateIdx];
}

const ServiceTimes &
Dispatcher::service(u32 templateIdx)
{
    return serviceFor(livePod_, cacheFor(livePod_.aliveChips()),
                      templateIdx);
}

namespace {

/** What the run loop reacts to besides dispatching a batch. */
enum class EventKind : u8
{
    ChipFail,
    LinkDegrade,
    Replay,
    Arrival,
};

/**
 * One pending event. Events fire in (time, kind, key) order: at equal
 * times a chip loss goes before a link change, which goes before a
 * replay wake-up, which goes before an arrival; then the fault's or
 * arrival's index, or the replayed request's id, breaks the tie.
 */
struct Event
{
    double time;
    EventKind kind;
    u64 key;
    Request req;  ///< what an Arrival or Replay carries

    bool operator<(const Event &o) const
    {
        return std::tie(time, kind, key) < std::tie(o.time, o.kind, o.key);
    }
};

/** A circuit-breaker input, applied at its own virtual time. */
struct BreakerOutcome
{
    u32 tenant;
    bool failure;
};

/** One dispatched copy of a batch and how it ended. */
struct CopyFate
{
    bool success = false;
    double end = 0.0;     ///< finish, or the kill time
    double finish = 0.0;  ///< scheduled finish
    bool killed = false;
    bool cacheHit = false;
};

/** A completed request's lifetime (arrival -> finish) for the trace. */
struct RequestSpan
{
    u32 tenant;
    u64 id;
    double ts;
    double dur;
    std::string name;
    double slaMet;
};

RequestOutcome
outcomeOf(const Request &r, Disposition disposition)
{
    RequestOutcome out;
    out.id = r.id;
    out.tenant = r.tenant;
    out.templateIdx = r.templateIdx;
    out.disposition = disposition;
    out.arrival = r.arrival;
    out.attempts = r.attempts;
    return out;
}

std::vector<double>
tenantWeights(const std::vector<TenantSpec> &tenants)
{
    std::vector<double> weights;
    for (const auto &t : tenants)
        weights.push_back(t.weight);
    return weights;
}

}  // namespace

/** The state of one run() and a handler per event kind. */
struct Dispatcher::Run
{
    Dispatcher &d;
    const ServeOptions &opt;
    const std::vector<Request> &arrivals;
    const u64 compiles0;
    const u64 hits0;
    const fault::FaultInjector injector;
    RequestQueue queue;
    AdmissionController admission;
    CircuitBreaker breaker;
    telemetry::TraceRecorder *const tr;
    ServeResult res;
    double now = 0.0;     ///< virtual clock (monotone)
    u64 dispatchSeq = 0;  ///< indexes the batch-fail oracle
    /** One group of every alive chip, or two halves when hedging. The
     *  larger half leads, so groups[0] is always the pricing reference. */
    std::vector<Group> groups;
    std::set<Event> events;
    /** Arrival and Replay events pending; faults alone do not keep the
     *  run going. */
    u64 requestEvents = 0;
    /** Chip failures fired so far: the next one decides, at dispatch,
     *  whether a batch dies before it finishes. */
    std::size_t chipFailsFired = 0;
    /** Breaker outcomes take effect at the failure or completion time,
     *  not at the dispatch that decided them: held by time (ties in
     *  insertion order) and settled before each admission. */
    std::multimap<double, BreakerOutcome> breakerOutcomes;
    std::vector<u32> groupTracks;
    std::vector<u32> tenantTracks;
    /** Buffered because they overlap whenever requests queue; laid out
     *  on first-fit lanes at the end of the run. */
    std::vector<RequestSpan> spans;

    Run(Dispatcher &dispatcher, const std::vector<Request> &offered,
        double durationSeconds)
        : d(dispatcher),
          opt(dispatcher.opt_),
          arrivals(offered),
          compiles0(dispatcher.planCompiles_),
          hits0(dispatcher.planCacheHits_),
          injector(opt.faultPlan),
          queue(opt.policy, tenantWeights(dispatcher.tenants_)),
          admission(opt.admission, dispatcher.tenants_),
          breaker(opt.recovery, dispatcher.tenants_.size()),
          tr(opt.trace),
          groups(buildGroups(0.0))
    {
        res.durationSeconds = durationSeconds;
        if (tr != nullptr) {
            tr->beginProcess("serve");
            groupTracks.push_back(tr->track("accelerator"));
            for (const auto &t : d.tenants_)
                tenantTracks.push_back(tr->track("tenant:" + t.name));
        }
        const fault::FaultPlan &plan = opt.faultPlan;
        for (u64 i = 0; i < plan.chipFails.size(); ++i)
            events.insert(
                {plan.chipFails[i].seconds, EventKind::ChipFail, i, {}});
        for (u64 i = 0; i < plan.linkDegrades.size(); ++i)
            events.insert(
                {plan.linkDegrades[i].seconds, EventKind::LinkDegrade, i, {}});
        for (u64 i = 0; i < arrivals.size(); ++i)
            pushRequestEvent(EventKind::Arrival, arrivals[i].arrival, i,
                             arrivals[i]);
    }

    void pushRequestEvent(EventKind kind, double time, u64 key,
                          const Request &r)
    {
        events.insert({time, kind, key, r});
        ++requestEvents;
    }

    void fire()
    {
        const Event ev = *events.begin();
        events.erase(events.begin());
        now = std::max(now, ev.time);
        switch (ev.kind) {
        case EventKind::ChipFail:
            return onChipFail(opt.faultPlan.chipFails[ev.key]);
        case EventKind::LinkDegrade:
            return onLinkDegrade(opt.faultPlan.linkDegrades[ev.key]);
        case EventKind::Replay:
            --requestEvents;
            return onReplay(ev.req);
        case EventKind::Arrival:
            --requestEvents;
            return onArrival(ev.req);
        }
    }

    void onArrival(const Request &r)
    {
        settleBreaker(now);
        if (!breaker.tryAdmit(r.tenant, now)) {
            ++res.recovery.breakerRejected;
            return reject(r, Disposition::RejectedBreaker, "breaker");
        }
        const double residual =
            std::max(0.0, groups[earliestFreeGroup()].freeAt - now);
        const double wait = residual + queue.backlogSeconds();
        if (auto why = admission.decide(r, now, wait, queue.depth()))
            return reject(r,
                          *why == RejectReason::Throttled
                              ? Disposition::RejectedThrottled
                              : Disposition::RejectedOverload,
                          rejectReasonName(*why));
        enqueue(r, leadService(r.templateIdx).warmSeconds);
    }

    void onReplay(const Request &r)
    {
        const ServiceTimes &st = leadService(r.templateIdx);
        // Deadline propagation: a retry whose best case (a warm pass
        // starting immediately) already misses the SLA expires here
        // instead of loading the queue with unservable work.
        if (now + st.warmSeconds > r.deadline)
            return expire(r, now);
        ++res.recovery.replays;
        if (tr != nullptr)
            tr->instant("replay:" + tenantName(r), now * 1e6);
        enqueue(r, st.warmSeconds);
    }

    void onChipFail(const fault::ChipFailEvent &ev)
    {
        ++chipFailsFired;
        pod::PodConfig &pod = d.livePod_;
        pod.deadChips += ev.chips;
        CROPHE_ASSERT(pod.deadChips < pod.chips,
                      "timed chip failures validated at construction");
        // Repartition: every group's resident state (and any batch in
        // flight, accounted at its dispatch) is gone; the survivors come
        // back after the modeled downtime with cold aux and re-priced
        // plans under the new pod digest.
        d.shapeCaches_.clear();
        groups = buildGroups(ev.seconds + opt.recovery.repartitionSeconds);
        admission.setCapacityFraction(
            static_cast<double>(pod.aliveChips()) /
                static_cast<double>(pod.chips),
            ev.seconds);
        ++res.recovery.repartitions;
        res.recovery.downtimeSeconds += opt.recovery.repartitionSeconds;
        if (tr != nullptr) {
            tr->instant("chip-fail:" + std::to_string(ev.chips),
                        ev.seconds * 1e6);
            tr->instant("repartition:" + std::to_string(pod.aliveChips()) +
                            "-alive",
                        ev.seconds * 1e6);
        }
    }

    void onLinkDegrade(const fault::LinkDegradeEvent &ev)
    {
        d.livePod_.linkFraction = ev.fraction;
        // Transfers reprice under the degraded links; resident aux
        // survives (nothing on-chip was lost), so groups keep their
        // batch keys and immediate availability.
        d.shapeCaches_.clear();
        if (tr != nullptr)
            tr->instant("link-degrade", ev.seconds * 1e6);
    }

    void dispatch(std::size_t gi, double t)
    {
        const auto batch = queue.popBatch(opt.maxBatch);
        const u32 tidx = batch.front().templateIdx;
        const RequestTemplate &tmpl = d.catalog_.templates[tidx];
        now = std::max(now, t);
        ++res.batches;
        res.batchedRequests += batch.size();
        const CopyFate primary = dispatchCopy(gi, t, batch, tidx);

        // Hedge a tail batch (one carrying a replay) onto the other
        // group when it is idle: the earliest successful copy wins.
        std::optional<CopyFate> hedge;
        if (opt.recovery.hedge && groups.size() >= 2) {
            const std::size_t hi = gi == 0 ? 1 : 0;
            const bool tail =
                std::any_of(batch.begin(), batch.end(),
                            [](const Request &r) { return r.attempts > 0; });
            if (tail && groups[hi].freeAt <= t) {
                hedge = dispatchCopy(hi, t, batch, tidx);
                ++res.recovery.hedgedBatches;
                if (tr != nullptr)
                    tr->instant("hedge:" + tmpl.name, t * 1e6);
            }
        }
        resolve(batch, t, primary, hedge, tmpl.name);
        if (tr != nullptr)
            tr->counter("queue.depth", primary.finish * 1e6,
                        static_cast<double>(queue.depth()));
    }

    CopyFate dispatchCopy(std::size_t gi, double start,
                          const std::vector<Request> &batch, u32 tidx)
    {
        Group &g = groups[gi];
        const RequestTemplate &tmpl = d.catalog_.templates[tidx];
        ShapeCache &cache = d.cacheFor(g.chips);
        const ServiceTimes &st = d.serviceFor(d.podForGroup(g), cache, tidx);
        const double plan = cache.planCharge[tidx];
        cache.planCharge[tidx] = 0.0;
        // Back-to-back batches of the same template keep aux resident.
        const bool auxResident =
            g.haveLastKey && g.lastBatchKey == tmpl.graphHash;
        const double first = auxResident ? st.warmSeconds : st.coldSeconds;
        const double compute =
            first + static_cast<double>(batch.size() - 1) * st.warmSeconds;
        const double finish = start + plan + compute;
        g.freeAt = finish;
        g.lastBatchKey = tmpl.graphHash;
        g.haveLastKey = true;

        CopyFate fate;
        fate.finish = finish;
        fate.end = finish;
        fate.cacheHit = st.planCacheHit;
        // Chip-fail times are static, so a batch's fate is known at its
        // dispatch: the next unfired chip loss before finish kills it.
        const auto &chipFails = opt.faultPlan.chipFails;
        const bool failed = injector.batchFailed(dispatchSeq++);
        if (chipFailsFired < chipFails.size() &&
            chipFails[chipFailsFired].seconds < finish) {
            fate.killed = true;
            fate.end = chipFails[chipFailsFired].seconds;
            ++res.recovery.lostBatches;
            res.recovery.lostRequests += batch.size();
            if (tr != nullptr)
                tr->instant("batch-lost", fate.end * 1e6);
        } else if (failed) {
            ++res.recovery.batchFailures;
        } else {
            fate.success = true;
        }
        // Occupancy until the copy ends (plan time is not compute).
        res.busySeconds +=
            fate.killed
                ? std::min(compute, std::max(0.0, fate.end - start - plan))
                : compute;
        res.horizonSeconds = std::max(res.horizonSeconds, fate.end);

        if (tr != nullptr) {
            std::vector<std::pair<std::string, double>> args = {
                {"batch", static_cast<double>(batch.size())},
                {"plan_ms", plan * 1e3},
                {"cache_hit", st.planCacheHit ? 1.0 : 0.0}};
            if (fate.killed)
                args.push_back({"killed", 1.0});
            else if (failed)
                args.push_back({"failed", 1.0});
            tr->complete(groupTrack(gi), tmpl.name, start * 1e6,
                         (fate.end - start) * 1e6, args);
        }
        return fate;
    }

    void resolve(const std::vector<Request> &batch, double start,
                 const CopyFate &primary,
                 const std::optional<CopyFate> &hedge,
                 const std::string &name)
    {
        // The earliest success completes the requests (ties favor the
        // primary); with no success anywhere the requests fail once the
        // last copy has died.
        const bool hedgeWins =
            hedge.has_value() && hedge->success &&
            (!primary.success || hedge->end < primary.end);
        const CopyFate *winner =
            hedgeWins ? &*hedge : (primary.success ? &primary : nullptr);
        if (winner == nullptr) {
            const double failTime =
                hedge.has_value() ? std::max(primary.end, hedge->end)
                                  : primary.end;
            for (const Request &r : batch) {
                retry(r, failTime);
                breakerOutcomes.emplace(failTime,
                                        BreakerOutcome{r.tenant, true});
            }
            return;
        }
        if (hedgeWins)
            ++res.recovery.hedgeWins;
        const double finish = winner->end;
        for (const Request &r : batch) {
            RequestOutcome out = outcomeOf(r, Disposition::Completed);
            out.start = start;
            out.finish = finish;
            out.slaMet = finish <= r.deadline;
            out.planCacheHit = winner->cacheHit;
            out.batchSize = static_cast<u32>(batch.size());
            out.hedged = hedge.has_value();
            res.outcomes.push_back(out);
            breakerOutcomes.emplace(finish, BreakerOutcome{r.tenant, false});
            if (tr != nullptr)
                spans.push_back({r.tenant, r.id, r.arrival * 1e6,
                                 (finish - r.arrival) * 1e6, name,
                                 out.slaMet ? 1.0 : 0.0});
        }
    }

    void retry(Request r, double failTime)
    {
        r.attempts += 1;
        if (r.attempts > opt.recovery.maxRetries)
            return expire(r, failTime);
        pushRequestEvent(EventKind::Replay,
                         failTime + retryBackoff(opt.recovery, r.attempts),
                         r.id, r);
    }

    void expire(const Request &r, double t)
    {
        RequestOutcome out = outcomeOf(r, Disposition::Expired);
        out.finish = t;
        res.outcomes.push_back(out);
        ++res.recovery.expired;
        if (tr != nullptr)
            tr->instant("expire:" + tenantName(r), t * 1e6);
    }

    void reject(const Request &r, Disposition disposition, const char *why)
    {
        res.outcomes.push_back(outcomeOf(r, disposition));
        if (tr != nullptr)
            tr->instant("reject:" + tenantName(r) + ":" + why,
                        r.arrival * 1e6);
    }

    void enqueue(const Request &r, double warmSeconds)
    {
        queue.push(r, d.catalog_.templates[r.templateIdx].graphHash,
                   warmSeconds, now);
        if (tr != nullptr)
            tr->counter("queue.depth", now * 1e6,
                        static_cast<double>(queue.depth()));
    }

    void settleBreaker(double t)
    {
        while (!breakerOutcomes.empty() &&
               breakerOutcomes.begin()->first <= t) {
            const auto [time, outcome] = *breakerOutcomes.begin();
            breakerOutcomes.erase(breakerOutcomes.begin());
            const u64 trips0 = breaker.trips();
            if (outcome.failure)
                breaker.onFailure(outcome.tenant, time);
            else
                breaker.onSuccess(outcome.tenant);
            if (tr != nullptr && breaker.trips() > trips0)
                tr->instant("breaker-open:" +
                                d.tenants_[outcome.tenant].name,
                            time * 1e6);
        }
    }

    void layOutRequestSpans()
    {
        // Perfetto rejects partially overlapping slices on one track,
        // so each tenant gets first-fit lanes: lane 0 is the pre-created
        // "tenant:<name>" track, overflow lanes get " #k" suffixes.
        std::sort(spans.begin(), spans.end(),
                  [](const RequestSpan &a, const RequestSpan &b) {
                      return std::tie(a.ts, a.id) < std::tie(b.ts, b.id);
                  });
        std::vector<std::vector<double>> laneEnd(tenantTracks.size(),
                                                 {0.0});
        std::vector<std::vector<u32>> laneTrack;
        for (u32 track : tenantTracks)
            laneTrack.push_back({track});
        for (const RequestSpan &s : spans) {
            auto &ends = laneEnd[s.tenant];
            auto &tracks = laneTrack[s.tenant];
            std::size_t lane = 0;
            while (lane < ends.size() && ends[lane] > s.ts)
                ++lane;
            if (lane == ends.size()) {
                ends.push_back(0.0);
                tracks.push_back(tr->track("tenant:" +
                                           d.tenants_[s.tenant].name +
                                           " #" + std::to_string(lane + 1)));
            }
            ends[lane] = s.ts + s.dur;
            tr->complete(tracks[lane], s.name, s.ts, s.dur,
                         {{"id", static_cast<double>(s.id)},
                          {"sla_met", s.slaMet}});
        }
    }

    ServeResult finish()
    {
        settleBreaker(std::numeric_limits<double>::infinity());
        res.recovery.breakerTrips = breaker.trips();
        res.recovery.breakerHalfOpens = breaker.halfOpens();
        res.recovery.unfiredFaults = static_cast<u64>(
            std::count_if(events.begin(), events.end(), [](const Event &e) {
                return e.kind == EventKind::ChipFail ||
                       e.kind == EventKind::LinkDegrade;
            }));
        if (tr != nullptr)
            layOutRequestSpans();
        res.horizonSeconds =
            std::max(res.horizonSeconds, res.durationSeconds);
        std::sort(res.outcomes.begin(), res.outcomes.end(),
                  [](const RequestOutcome &a, const RequestOutcome &b) {
                      return a.id < b.id;
                  });
        res.planCompiles = d.planCompiles_ - compiles0;
        res.planCacheHits = d.planCacheHits_ - hits0;
        // Conservation (DESIGN.md §14): every offered request reached
        // exactly one terminal state — nothing was silently dropped.
        CROPHE_ASSERT(res.truncated ||
                          res.outcomes.size() == arrivals.size(),
                      "request conservation violated: ", arrivals.size(),
                      " offered vs ", res.outcomes.size(), " terminal");
        return std::move(res);
    }

    std::vector<Group> buildGroups(double freeAt) const
    {
        const u32 alive = d.livePod_.aliveChips();
        if (!opt.recovery.hedge || alive < 2)
            return {{alive, freeAt}};
        const u32 lead = (alive + 1) / 2;
        return {{lead, freeAt}, {alive - lead, freeAt}};
    }

    std::size_t earliestFreeGroup() const
    {
        std::size_t gi = 0;
        for (std::size_t i = 1; i < groups.size(); ++i)
            if (groups[i].freeAt < groups[gi].freeAt)
                gi = i;
        return gi;
    }

    /** Queueing (WFQ tags, backlog shedding) is priced at the lead
     *  group's steady-state rate; compilation happens on first use. */
    const ServiceTimes &leadService(u32 templateIdx)
    {
        return d.serviceFor(d.podForGroup(groups[0]),
                            d.cacheFor(groups[0].chips), templateIdx);
    }

    u32 groupTrack(std::size_t i)
    {
        while (groupTracks.size() <= i)
            groupTracks.push_back(tr->track(
                "accelerator #" + std::to_string(groupTracks.size() + 1)));
        return groupTracks[i];
    }

    const std::string &tenantName(const Request &r) const
    {
        return d.tenants_[r.tenant].name;
    }
};

ServeResult
Dispatcher::run(const std::vector<Request> &arrivals,
                double durationSeconds)
{
    // Timed faults mutate the pod shape mid-run; start each such run
    // from the configured shape with no stale prices. Healthy runs keep
    // the service-model persistence contract across run() calls.
    livePod_ = opt_.pod;
    if (opt_.faultPlan.hasTimedFaults())
        shapeCaches_.clear();
    Run r(*this, arrivals, durationSeconds);

    // The earliest-free group dispatches once no event is due by its
    // start; until then the next event fires, so every event is handled
    // at its own virtual time and competes for (or invalidates) the
    // batch. Faults after the last request event never fire; finish()
    // reports how many.
    while (!r.queue.empty() || r.requestEvents > 0) {
        if (opt_.cancelled && opt_.cancelled()) {
            r.res.truncated = true;
            break;
        }
        const std::size_t gi = r.earliestFreeGroup();
        const double start = std::max(r.now, r.groups[gi].freeAt);
        if (!r.queue.empty() &&
            (r.events.empty() || r.events.begin()->time > start))
            r.dispatch(gi, start);
        else
            r.fire();
    }
    return r.finish();
}

}  // namespace crophe::serve
