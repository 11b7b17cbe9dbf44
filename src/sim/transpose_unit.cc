#include "sim/transpose_unit.h"

#include "common/logging.h"
#include "telemetry/trace_recorder.h"

namespace crophe::sim {

TransposeUnit::TransposeUnit(const hw::HwConfig &cfg)
    // Lane-wide read+write ports.
    : rate_(static_cast<double>(cfg.lanes)),
      capacityWords_(static_cast<u64>(cfg.transposeMB * 1024.0 * 1024.0 /
                                      cfg.wordBytes()))
{
    CROPHE_ASSERT(cfg.lanes > 0, "transpose unit needs lanes > 0");
}

SimTime
TransposeUnit::transpose(SimTime ready, u64 words)
{
    FifoRun port = run(words);
    const SimTime done = port.serve<true>(ready);
    port.commit();
    return done;
}

void
TransposeUnit::attachTrace(telemetry::TraceRecorder *rec)
{
    spans_.attach(rec, rec->track("Transpose unit"), "transpose");
}

}  // namespace crophe::sim
