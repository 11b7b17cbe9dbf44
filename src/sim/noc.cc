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

NocModel::NocModel(const hw::HwConfig &cfg)
    : capacity_(nocCapacity(cfg)), links_(capacity_)
{
}

SimTime
NocModel::transfer(SimTime ready, u64 words, u32 hops)
{
    if (words == 0)
        return ready;
    totalWords_ += words;
    if (faults_ != nullptr) {
        // Local draw counter: reroute decisions depend only on
        // (seed, site, index) in deterministic simulated-event order.
        u64 n = transferIndex_++;
        if (faults_->nocLinkFailed(n)) {
            ++faultReroutes_;
            hops += faults_->plan().nocRerouteExtraHops;
            CROPHE_WARN_EVERY_N(1000, "NoC link failure: rerouting with ",
                                faults_->plan().nocRerouteExtraHops,
                                " extra hop(s)");
            if (trace_ != nullptr)
                trace_->instant("noc reroute", ready);
        }
    }
    // Hop latency is pipelined through the routers: it delays delivery
    // but does not occupy link bandwidth.
    return links_.serve(ready, static_cast<double>(words)) +
           kHopLatency * hops;
}

void
NocModel::attachTrace(telemetry::TraceRecorder *rec)
{
    trace_ = rec;
    links_.attachTrace(rec, rec->track("NoC"), "transfer");
}

void
NocModel::attachFaults(const fault::FaultInjector *faults)
{
    // An empty plan must be indistinguishable from a healthy run.
    faults_ = (faults != nullptr && !faults->plan().empty()) ? faults
                                                             : nullptr;
}

}  // namespace crophe::sim
