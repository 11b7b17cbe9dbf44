#include "sim/fifo.h"

#include "telemetry/trace_recorder.h"

namespace crophe::sim {

void
SpanTrack::emit(SimTime start, double duration) const
{
    rec_->complete(track_, name_, start, duration);
}

}  // namespace crophe::sim
