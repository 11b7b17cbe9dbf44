#include "sim/event_queue.h"

#include "common/logging.h"
#include "telemetry/trace_recorder.h"

namespace crophe::sim {

namespace {
/** Sampling period for the queue-depth trace counter. */
constexpr u64 kDepthSampleMask = 0xFF;

/** Strict (when, seq) order; seq is unique, so the order is total. */
inline bool
earlier(const Event &a, const Event &b)
{
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
}

/** Children per heap node: a 4-ary heap is half as deep as a binary one. */
constexpr std::size_t kArity = 4;

}  // namespace

void
EventQueue::schedule(SimTime when, u32 op)
{
    CROPHE_ASSERT(when >= 0.0, "negative event time");
    const Event ev{when, nextSeq_++, op};
    std::size_t i = heap_.size();
    heap_.push_back(ev);
    while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!earlier(ev, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = ev;
}

Event
EventQueue::pop()
{
    CROPHE_ASSERT(!heap_.empty(), "pop on empty queue");
    const Event top = heap_.front();
    const Event last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
        // Sift the last event down from the root into the hole.
        std::size_t i = 0;
        for (;;) {
            const std::size_t first = kArity * i + 1;
            if (first >= n)
                break;
            std::size_t best = first;
            const std::size_t end = std::min(first + kArity, n);
            for (std::size_t c = first + 1; c < end; ++c)
                if (earlier(heap_[c], heap_[best]))
                    best = c;
            if (!earlier(heap_[best], last))
                break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = last;
    }
    ++processed_;
    if (trace_ != nullptr && (processed_ & kDepthSampleMask) == 0)
        sampleDepth(top.when);
    return top;
}

void
EventQueue::sampleDepth(SimTime now) const
{
    trace_->counter("events.queued", now,
                    static_cast<double>(heap_.size()));
}

void
Server::recordSpan(SimTime start, double duration) const
{
    trace_->complete(traceTrack_, traceName_, start, duration);
}

}  // namespace crophe::sim
