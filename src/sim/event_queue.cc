#include "sim/event_queue.h"

#include "common/logging.h"
#include "telemetry/trace_recorder.h"

namespace crophe::sim {

namespace {
/** The queue-depth trace counter is sampled every 2^8 processed events. */
constexpr u32 kDepthSampleShift = 8;

/** Strict (when, seq) order; seq is unique, so the order is total. */
template <typename A, typename B>
inline bool
earlier(const A &a, const B &b)
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
    add(op, {when, nextSeq_++, nullptr, 0, 0});
}

void
EventQueue::scheduleRun(const SimTime *times, u32 n,
                        std::span<const u32> ops)
{
    if (n == 0 || ops.empty())
        return;
    CROPHE_ASSERT(times[0] >= 0.0, "negative event time");
    const u32 stride = static_cast<u32>(ops.size());
    for (u32 k = 0; k < stride; ++k)
        add(ops[k], {times[0], nextSeq_ + k, times + 1, n - 1, stride});
    nextSeq_ += static_cast<u64>(n) * stride;
}

/** File @p w under @p op; its earliest wake-up may become the ticket. */
void
EventQueue::add(u32 op, Wakes w)
{
    if (op >= slot_.size()) {
        slot_.resize(op + 1, kNone);
        later_.resize(op + 1);
    }
    const u32 s = slot_[op];
    if (s == kNone && op != held_) {
        const Event ev{w.when, w.seq, op};
        if (w.advance())
            later_[op].push_back(w);
        heap_.push_back(ev);
        siftUp(heap_.size() - 1, ev);
    } else if (s != kNone && earlier(w, heap_[s])) {
        // Earlier than the op's ticket: it takes the ticket's place.
        later_[op].push_back({heap_[s].when, heap_[s].seq, nullptr, 0, 0});
        const Event ev{w.when, w.seq, op};
        if (w.advance())
            later_[op].push_back(w);
        siftUp(s, ev);
    } else {
        later_[op].push_back(w);
    }
}

Event
EventQueue::pop()
{
    if (held_ != kNone)
        reticket();
    CROPHE_ASSERT(!heap_.empty(), "pop on empty queue");
    const Event top = heap_.front();
    slot_[top.op] = kNone;
    removeTicket(0);
    if (!later_[top.op].empty())
        held_ = top.op;
    lastPop_ = top.when;
    countProcessed(1);
    return top;
}

void
EventQueue::retire(u32 op)
{
    if (op >= slot_.size())
        return;
    u64 dropped = 0;
    for (const Wakes &w : later_[op])
        dropped += 1 + w.left;
    if (op == held_) {
        held_ = kNone;
    } else if (slot_[op] != kNone) {
        const u32 s = slot_[op];
        slot_[op] = kNone;
        removeTicket(s);
        ++dropped;
    }
    later_[op].clear();
    countProcessed(dropped);
}

void
EventQueue::place(std::size_t i, const Event &ev)
{
    heap_[i] = ev;
    slot_[ev.op] = static_cast<u32>(i);
}

void
EventQueue::siftUp(std::size_t i, const Event &ev)
{
    while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!earlier(ev, heap_[parent]))
            break;
        place(i, heap_[parent]);
        i = parent;
    }
    place(i, ev);
}

void
EventQueue::siftDown(std::size_t i, const Event &ev)
{
    const std::size_t n = heap_.size();
    for (;;) {
        const std::size_t first = kArity * i + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t end = std::min(first + kArity, n);
        for (std::size_t c = first + 1; c < end; ++c)
            if (earlier(heap_[c], heap_[best]))
                best = c;
        if (!earlier(heap_[best], ev))
            break;
        place(i, heap_[best]);
        i = best;
    }
    place(i, ev);
}

/** Remove the ticket at heap index @p i (its op's slot is the caller's). */
void
EventQueue::removeTicket(std::size_t i)
{
    const Event last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size())
        return;
    if (i > 0 && earlier(last, heap_[(i - 1) / kArity]))
        siftUp(i, last);
    else
        siftDown(i, last);
}

/** Give the held op a ticket: its earliest later wake-up, by a scan. */
void
EventQueue::reticket()
{
    const u32 op = held_;
    held_ = kNone;
    std::vector<Wakes> &later = later_[op];
    std::size_t best = 0;
    for (std::size_t k = 1; k < later.size(); ++k)
        if (earlier(later[k], later[best]))
            best = k;
    const Event ev{later[best].when, later[best].seq, op};
    if (!later[best].advance()) {
        later[best] = later.back();
        later.pop_back();
    }
    heap_.push_back(ev);
    siftUp(heap_.size() - 1, ev);
}

void
EventQueue::countProcessed(u64 n)
{
    const u64 before = processed_;
    processed_ += n;
    if (trace_ == nullptr ||
        (before >> kDepthSampleShift) == (processed_ >> kDepthSampleShift))
        return;
    // Live wake-ups: tickets plus every op's later wake-ups.
    u64 live = heap_.size();
    for (const auto &later : later_)
        for (const Wakes &w : later)
            live += 1 + w.left;
    trace_->counter("events.queued", lastPop_, static_cast<double>(live));
}

void
SpanTrack::emit(SimTime start, double duration) const
{
    rec_->complete(track_, name_, start, duration);
}

}  // namespace crophe::sim
