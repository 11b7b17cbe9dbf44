#ifndef CROPHE_SIM_EVENT_QUEUE_H_
#define CROPHE_SIM_EVENT_QUEUE_H_

/**
 * @file
 * Minimal discrete-event kernel: a time-ordered queue of typed wake-ups,
 * the FIFO booking rule every resource is timed by, the run cursor chip
 * resources book chunks through, and the FIFO bandwidth server the pod's
 * ring links are built from.
 */

#include <algorithm>
#include <span>
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
 * unordered list. A run of wake-ups (scheduleRun()) is one entry of that
 * list. Once an op has nothing left to do, retire() drops all its
 * pending wake-ups in one step instead of popping each of them.
 */
class EventQueue
{
  public:
    /** Schedule a wake-up of @p op at @p when. */
    void schedule(SimTime when, u32 op);

    /**
     * Schedule the wake-ups of a run of @p n chunks finishing at
     * times[0 .. n): for each chunk in turn, one wake-up of each op of
     * @p ops, in order. They get the sequence numbers, pop order,
     * processed() count and queue-depth samples of those n * ops.size()
     * schedule() calls, but each op costs one append, not n. @p times
     * must be non-decreasing and must stay unchanged until every one of
     * these wake-ups has popped or been retired.
     */
    void scheduleRun(const SimTime *times, u32 n, std::span<const u32> ops);

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
    /**
     * Pending wake-ups of a known op: the earliest (when, seq), then
     * @p left more at next[0 .. left), each @p stride sequence numbers
     * after the one before (a single wake-up has none).
     */
    struct Wakes
    {
        SimTime when;
        u64 seq;
        const SimTime *next;
        u32 left;
        u32 stride;

        /** Step past the earliest; false when it was the last. */
        bool
        advance()
        {
            if (left == 0)
                return false;
            when = *next++;
            seq += stride;
            --left;
            return true;
        }
    };

    /** No op (held_) or no heap slot (slot_). */
    static constexpr u32 kNone = ~0u;

    void add(u32 op, Wakes w);
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
    std::vector<std::vector<Wakes>> later_;
    /** The op popped last when it still has later wake-ups: they get a
     *  ticket on the next pop unless the op is retired first. */
    u32 held_ = kNone;
    u64 nextSeq_ = 0;
    u64 processed_ = 0;
    SimTime lastPop_ = 0.0;
    telemetry::TraceRecorder *trace_ = nullptr;
};

/**
 * The FIFO booking rule: a request ready at @p ready waits @p latency,
 * then for the resource (free from @p free_at), which it holds for
 * @p duration. Moves @p free_at to the request's completion and returns
 * its start.
 */
inline SimTime
bookFifo(SimTime &free_at, SimTime ready, double duration,
         double latency = 0.0)
{
    const SimTime start = std::max(ready + latency, free_at);
    free_at = start + duration;
    return start;
}

/** The trace track a resource records its busy spans on. */
class SpanTrack
{
  public:
    /** Record spans named @p name on @p track of @p rec. */
    void
    attach(telemetry::TraceRecorder *rec, u32 track, const char *name)
    {
        rec_ = rec;
        track_ = track;
        name_ = name;
    }

    /** Null until attach(). */
    telemetry::TraceRecorder *recorder() const { return rec_; }

    /** Record a busy span (no recorder or no duration = no work). */
    void
    record(SimTime start, double duration) const
    {
        if (rec_ != nullptr && duration > 0.0)
            emit(start, duration);
    }

  private:
    void emit(SimTime start, double duration) const;

    telemetry::TraceRecorder *rec_ = nullptr;
    u32 track_ = 0;
    const char *name_ = "";
};

/**
 * Back-to-back requests of @p words each on one chip resource, booked on
 * a copy of its frontier: the simulator's issue loop keeps the copy in
 * registers for a whole run of chunks. commit() writes the frontier back
 * and adds the words moved to the resource's total; nothing else may use
 * the resource in between.
 */
class FifoRun
{
  public:
    /** @p spans may be null: the caller records the spans itself. */
    FifoRun(SimTime &free_at, u64 &total_words, const SpanTrack *spans,
            u64 words, double duration)
        : home_(free_at), total_(total_words), spans_(spans), words_(words),
          duration_(duration), freeAt_(free_at)
    {
    }

    /**
     * Book the next request, ready at @p ready, after @p latency; returns
     * its completion (a request of no words costs nothing). With
     * @p kHooks it also records its span.
     */
    template <bool kHooks>
    SimTime
    serve(SimTime ready, double latency = 0.0)
    {
        if (words_ == 0)
            return ready;
        start_ = bookFifo(freeAt_, ready, duration_, latency);
        if constexpr (kHooks)
            if (spans_ != nullptr)
                spans_->record(start_, duration_);
        ++n_;
        return freeAt_;
    }

    u64 words() const { return words_; }
    /** Start of the last request served. */
    SimTime start() const { return start_; }
    /** Requests served so far. */
    u64 served() const { return n_; }

    void
    commit()
    {
        home_ = freeAt_;
        total_ += n_ * words_;
    }

  private:
    SimTime &home_;
    u64 &total_;
    const SpanTrack *spans_;
    u64 words_;
    double duration_;
    SimTime freeAt_;
    SimTime start_ = 0.0;
    u64 n_ = 0;
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
        const double duration = amount / rate_;
        const SimTime start =
            bookFifo(freeAt_, ready, duration, fixed_latency);
        busy_ += duration;
        spans_.record(start, duration);
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
        spans_.attach(rec, track, span_name);
    }

    double busyCycles() const { return busy_; }

  private:
    double rate_;
    SimTime freeAt_ = 0.0;
    double busy_ = 0.0;
    SpanTrack spans_;
};

}  // namespace crophe::sim

#endif  // CROPHE_SIM_EVENT_QUEUE_H_
