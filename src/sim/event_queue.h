#ifndef CROPHE_SIM_EVENT_QUEUE_H_
#define CROPHE_SIM_EVENT_QUEUE_H_

/**
 * @file
 * Minimal discrete-event kernel: a time-ordered queue of typed wake-ups,
 * plus the FIFO bandwidth server every chip resource is built from.
 */

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace crophe::telemetry {
class TraceRecorder;
}  // namespace crophe::telemetry

namespace crophe::sim {

/** Simulated time in (fractional) accelerator cycles. */
using SimTime = double;

/** A wake-up of traced op @p op (an index into its group's trace). */
struct Event
{
    SimTime when = 0.0;
    u64 seq = 0;  ///< insertion sequence: ties on @p when pop FIFO
    u32 op = 0;
};

/**
 * Time-ordered event queue. Events pop in (when, insertion sequence)
 * order, so equal timestamps are served first-in first-out; the caller
 * dispatches each popped event itself.
 */
class EventQueue
{
  public:
    /** Schedule a wake-up of @p op at @p when. */
    void schedule(SimTime when, u32 op);

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Remove and return the earliest event; counts it as processed. */
    Event pop();

    /** Events popped so far. */
    u64 processed() const { return processed_; }

    /**
     * Periodically sample the queue depth as a trace counter while
     * popping (null recorder = no work). Observation only; event order
     * and timing are unaffected.
     */
    void attachTrace(telemetry::TraceRecorder *rec) { trace_ = rec; }

  private:
    void sampleDepth(SimTime now) const;

    /** 4-ary min-heap on (when, seq). */
    std::vector<Event> heap_;
    u64 nextSeq_ = 0;
    u64 processed_ = 0;
    telemetry::TraceRecorder *trace_ = nullptr;
};

/** A FIFO bandwidth server: one resource serving requests in order. */
class Server
{
  public:
    /** @param rate_per_cycle units served per cycle; must be positive —
     *  a zero rate would silently model infinite bandwidth. */
    explicit Server(double rate_per_cycle = 1.0) : rate_(rate_per_cycle)
    {
        if (!(rate_ > 0.0))
            CROPHE_PANIC("Server rate must be positive, got ", rate_);
    }

    /**
     * Serve @p amount units arriving at @p ready (plus @p fixed_latency);
     * returns the completion time.
     */
    SimTime
    serve(SimTime ready, double amount, double fixed_latency = 0.0)
    {
        double duration = amount / rate_;
        SimTime start = std::max(ready + fixed_latency, freeAt_);
        freeAt_ = start + duration;
        busy_ += duration;
        served_ += amount;
        lastStart_ = start;
        if (trace_ != nullptr && duration > 0.0)
            recordSpan(start, duration);
        return freeAt_;
    }

    /**
     * Record every busy interval as a span named @p span_name on @p track
     * of @p rec. Purely observational: the serve timing above is computed
     * before recording and never depends on it.
     */
    void
    attachTrace(telemetry::TraceRecorder *rec, u32 track,
                const char *span_name)
    {
        trace_ = rec;
        traceTrack_ = track;
        traceName_ = span_name;
    }

    double busyCycles() const { return busy_; }
    double servedUnits() const { return served_; }
    SimTime freeAt() const { return freeAt_; }
    /** Start time of the most recent serve() (for span recording). */
    SimTime lastStart() const { return lastStart_; }

  private:
    void recordSpan(SimTime start, double duration) const;

    double rate_;
    SimTime freeAt_ = 0.0;
    double busy_ = 0.0;
    double served_ = 0.0;
    SimTime lastStart_ = 0.0;
    telemetry::TraceRecorder *trace_ = nullptr;
    u32 traceTrack_ = 0;
    const char *traceName_ = "serve";
};

}  // namespace crophe::sim

#endif  // CROPHE_SIM_EVENT_QUEUE_H_
