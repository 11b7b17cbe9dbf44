#ifndef CROPHE_SIM_FIFO_H_
#define CROPHE_SIM_FIFO_H_

/**
 * @file
 * FIFO resource timing: the booking rule every resource is timed by, the
 * run cursor chip resources book chunks through, and the FIFO bandwidth
 * server the pod's ring links are built from.
 */

#include <algorithm>

#include "common/logging.h"
#include "common/types.h"

namespace crophe::telemetry {
class TraceRecorder;
}  // namespace crophe::telemetry

namespace crophe::sim {

/** Simulated time in (fractional) accelerator cycles. */
using SimTime = double;

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
 * registers for all of an op's chunks. commit() writes the frontier back
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

#endif  // CROPHE_SIM_FIFO_H_
