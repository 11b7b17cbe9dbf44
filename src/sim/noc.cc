#include "sim/noc.h"

#include "common/logging.h"
#include "telemetry/trace_recorder.h"

namespace crophe::sim {

namespace {

double
nocCapacity(const hw::HwConfig &cfg)
{
    CROPHE_ASSERT(cfg.numPes > 0 && cfg.lanes > 0,
                  "NoC needs positive numPes and lanes, got ", cfg.numPes,
                  " PEs x ", cfg.lanes, " lanes");
    return static_cast<double>(cfg.numPes) * cfg.lanes / 4.0;
}

}  // namespace

NocModel::NocModel(const hw::HwConfig &cfg) : capacity_(nocCapacity(cfg)) {}

SimTime
NocModel::transfer(SimTime ready, u64 words, u32 hops)
{
    Run run(*this, words, hops);
    const SimTime done = run.transfer<true>(ready);
    run.commit();
    return done;
}

u32
NocModel::detour(SimTime ready)
{
    // Local draw counter: reroute decisions depend only on
    // (seed, site, index) in deterministic simulated-event order.
    const u64 n = transferIndex_++;
    if (!faults_->nocLinkFailed(n))
        return 0;
    ++faultReroutes_;
    CROPHE_WARN_EVERY_N(1000, "NoC link failure: rerouting with ",
                        faults_->plan().nocRerouteExtraHops,
                        " extra hop(s)");
    if (spans_.recorder() != nullptr)
        spans_.recorder()->instant("noc reroute", ready);
    return faults_->plan().nocRerouteExtraHops;
}

void
NocModel::attachTrace(telemetry::TraceRecorder *rec)
{
    spans_.attach(rec, rec->track("NoC"), "transfer");
}

void
NocModel::attachFaults(const fault::FaultInjector *faults)
{
    // An empty plan must be indistinguishable from a healthy run.
    faults_ = (faults != nullptr && !faults->plan().empty()) ? faults
                                                             : nullptr;
}

}  // namespace crophe::sim
