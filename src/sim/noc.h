#ifndef CROPHE_SIM_NOC_H_
#define CROPHE_SIM_NOC_H_

/**
 * @file
 * Mesh NoC model (Section IV-A): packet-based hop-by-hop transfers with
 * XY routing and multicast. Transfers pay a per-hop latency plus
 * serialization on the aggregate mesh bandwidth; the producer-consumer
 * routes are statically known from the mapping.
 *
 * With a FaultInjector attached (DESIGN.md §9), transfers can hit a
 * failed link and detour around it, paying the plan's extra hops; the
 * reroute is counted and traced but the static routes stay valid.
 */

#include "fault/fault_injector.h"
#include "hw/config.h"
#include "sim/event_queue.h"

namespace crophe::sim {

/** Aggregate mesh interconnect model. */
class NocModel
{
  public:
    explicit NocModel(const hw::HwConfig &cfg);

    /** Transfer @p words over @p hops mesh hops starting at @p ready. */
    SimTime transfer(SimTime ready, u64 words, u32 hops);

    /** Record link-occupancy spans on a "NoC" trace track. */
    void attachTrace(telemetry::TraceRecorder *rec);

    /** Inject @p faults into every subsequent transfer (null = healthy). */
    void attachFaults(const fault::FaultInjector *faults);

    double busyCycles() const { return links_.busyCycles(); }
    u64 totalWords() const { return totalWords_; }
    double capacityWordsPerCycle() const { return capacity_; }

    /** Transfers that detoured around a failed link (zero when healthy). */
    u64 faultReroutes() const { return faultReroutes_; }

  private:
    static constexpr double kHopLatency = 1.0;  ///< cycles per hop

    double capacity_;
    Server links_;
    u64 totalWords_ = 0;
    telemetry::TraceRecorder *trace_ = nullptr;

    const fault::FaultInjector *faults_ = nullptr;
    u64 transferIndex_ = 0;  ///< local draw counter (deterministic order)
    u64 faultReroutes_ = 0;
};

}  // namespace crophe::sim

#endif  // CROPHE_SIM_NOC_H_
