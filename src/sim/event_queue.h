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
 *
 * Wake-ups are kept per op: the heap holds one ticket per op (its
 * earliest pending wake-up), and the op's later wake-ups wait in an
 * unordered list. Once an op has nothing left to do, retire() drops all
 * its pending wake-ups in one step instead of popping each of them.
 */
class EventQueue
{
  public:
    /** Schedule a wake-up of @p op at @p when. */
    void schedule(SimTime when, u32 op);

    /** True when no wake-ups are pending. */
    bool empty() const { return heap_.empty() && held_ == kNone; }

    /** Remove and return the earliest event; counts it as processed. */
    Event pop();

    /**
     * Drop every pending wake-up of @p op and count each as processed
     * (no-op when it has none). The caller retires an op once no
     * wake-up of it can do anything.
     */
    void retire(u32 op);

    /** Wake-ups popped or retired so far. */
    u64 processed() const { return processed_; }

    /**
     * Sample the pending wake-ups as a trace counter each time
     * processed() crosses a multiple of 256 (null recorder = no work).
     * Observation only; event order and timing are unaffected.
     */
    void attachTrace(telemetry::TraceRecorder *rec) { trace_ = rec; }

  private:
    /** A pending wake-up of a known op. */
    struct Wake
    {
        SimTime when;
        u64 seq;
    };

    /** No op (held_) or no heap slot (slot_). */
    static constexpr u32 kNone = ~0u;

    void place(std::size_t i, const Event &ev);
    void siftUp(std::size_t i, const Event &ev);
    void siftDown(std::size_t i, const Event &ev);
    void removeTicket(std::size_t i);
    void reticket();
    void countProcessed(u64 n);

    /** 4-ary min-heap on (when, seq) of each op's earliest wake-up. */
    std::vector<Event> heap_;
    /** slot_[op]: heap index of op's ticket, or kNone. */
    std::vector<u32> slot_;
    /** later_[op]: op's other pending wake-ups, in no order. */
    std::vector<std::vector<Wake>> later_;
    /** The op popped last when it still has later wake-ups: they get a
     *  ticket on the next pop unless the op is retired first. */
    u32 held_ = kNone;
    u64 nextSeq_ = 0;
    u64 processed_ = 0;
    SimTime lastPop_ = 0.0;
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
