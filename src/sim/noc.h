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
#include "sim/fifo.h"

namespace crophe::sim {

/** Aggregate mesh interconnect model. */
class NocModel
{
  public:
    explicit NocModel(const hw::HwConfig &cfg);

    /**
     * Back-to-back transfers of @p words each over @p hops mesh hops,
     * booked on a copy of the links' frontier that commit() writes back.
     * Nothing else may use the model between construction and commit().
     */
    class Run
    {
      public:
        Run(NocModel &noc, u64 words, u32 hops)
            : noc_(noc),
              links_(noc.freeAt_, noc.totalWords_, &noc.spans_, words,
                     static_cast<double>(words) / noc.capacity_),
              hops_(hops),
              hopLatency_(hopLatency(hops))
        {
        }

        /**
         * Book the next transfer, ready at @p ready; returns its delivery.
         * With @p kHooks it also draws its link failure and records its
         * span, when an injector or a recorder is attached.
         */
        template <bool kHooks>
        SimTime
        transfer(SimTime ready)
        {
            if (links_.words() == 0)
                return ready;
            double hop_latency = hopLatency_;
            if constexpr (kHooks)
                if (noc_.faults_ != nullptr)
                    hop_latency = hopLatency(hops_ + noc_.detour(ready));
            return links_.serve<kHooks>(ready) + hop_latency;
        }

        void commit() { links_.commit(); }

      private:
        NocModel &noc_;
        FifoRun links_;
        u32 hops_;
        double hopLatency_;
    };

    /** Transfer @p words over @p hops mesh hops starting at @p ready. */
    SimTime transfer(SimTime ready, u64 words, u32 hops);

    /** Record link-occupancy spans on a "NoC" trace track. */
    void attachTrace(telemetry::TraceRecorder *rec);

    /** Inject @p faults into every subsequent transfer (null = healthy). */
    void attachFaults(const fault::FaultInjector *faults);

    u64 totalWords() const { return totalWords_; }
    double capacityWordsPerCycle() const { return capacity_; }

    /** Transfers that detoured around a failed link (zero when healthy). */
    u64 faultReroutes() const { return faultReroutes_; }

  private:
    /** Hop latency is pipelined through the routers: it delays delivery
     *  but does not occupy link bandwidth. */
    static double hopLatency(u32 hops) { return kHopLatency * hops; }

    static constexpr double kHopLatency = 1.0;  ///< cycles per hop

    /** Extra hops the fault plan adds to this transfer (counts them). */
    u32 detour(SimTime ready);

    double capacity_;
    SimTime freeAt_ = 0.0;
    u64 totalWords_ = 0;
    SpanTrack spans_;

    const fault::FaultInjector *faults_ = nullptr;
    u64 transferIndex_ = 0;  ///< local draw counter (deterministic order)
    u64 faultReroutes_ = 0;
};

}  // namespace crophe::sim

#endif  // CROPHE_SIM_NOC_H_
