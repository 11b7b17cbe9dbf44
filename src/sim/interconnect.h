#ifndef CROPHE_SIM_INTERCONNECT_H_
#define CROPHE_SIM_INTERCONNECT_H_

/**
 * @file
 * Inter-chip pod interconnect (DESIGN.md §12): a bidirectional ring of
 * point-to-point links between the chips of a multi-accelerator pod.
 * Each directed link is a FIFO bandwidth server, so two transfers
 * crossing the same link serialize (shared-link contention) while
 * transfers on disjoint links proceed in parallel. A transfer routes on
 * the shorter ring direction (ties break clockwise, deterministically)
 * and pays a fixed per-hop latency plus serialization on every link it
 * crosses.
 *
 * All timing is in chip cycles of the HwConfig the interconnect was
 * built for; the pod layer converts to seconds at cfg.freqGhz.
 */

#include <string>
#include <vector>

#include "hw/config.h"
#include "sim/fifo.h"

namespace crophe::telemetry {
class StatsRegistry;
class TraceRecorder;
}  // namespace crophe::telemetry

namespace crophe::sim {

/** Pod-level interconnect parameters (part of the pod digest). */
struct InterconnectConfig
{
    u32 chips = 1;
    /** Bandwidth of one directed ring link (GB/s). */
    double linkGBs = 600.0;
    /** Fixed latency per ring hop, in chip cycles. */
    double linkLatencyCycles = 500.0;
    /**
     * Healthy-bandwidth fraction every link runs at, in (0, 1]. Set
     * below 1.0 by timed link-degrade faults (DESIGN.md §14); scales
     * the effective link rate, not the per-hop latency.
     */
    double linkFraction = 1.0;
};

/** Bidirectional ring of FIFO link servers. See file doc. */
class Interconnect
{
  public:
    /** @p chip supplies word width and frequency for rate conversion. */
    Interconnect(const InterconnectConfig &ic, const hw::HwConfig &chip);

    /**
     * Ring distance from @p from to @p to (shorter direction). Static so
     * the partitioner can weigh its cut objective with the same metric
     * the simulation charges.
     */
    static u32 ringHops(u32 from, u32 to, u32 chips);

    /**
     * Move @p words from chip @p from to chip @p to, data ready at
     * @p ready; returns the arrival time at the destination. A zero-hop
     * transfer (from == to) is free and returns @p ready.
     */
    SimTime transfer(SimTime ready, u32 from, u32 to, u64 words);

    u64 transfers() const { return transfers_; }
    u64 totalWords() const { return totalWords_; }
    u64 totalHopWords() const { return totalHopWords_; }
    /** Busy cycles summed over every directed link. */
    double busyCycles() const;
    /** Largest single-link busy time (the contention hot spot). */
    double maxLinkBusyCycles() const;

    /** Record per-link occupancy spans ("pod link c0->c1" tracks). */
    void attachTrace(telemetry::TraceRecorder *rec);

    /** Accumulate (+=) totals under @p prefix ("sim.pod.*"). */
    void accumulateInto(telemetry::StatsRegistry &reg,
                        const std::string &prefix = "sim.pod") const;

  private:
    /** Directed link leaving @p chip clockwise (+1) or counter (-1). */
    Server &link(u32 chip, bool clockwise);

    InterconnectConfig cfg_;
    double hopLatency_;
    std::vector<Server> links_;  ///< [0,chips) cw, [chips,2*chips) ccw
    std::vector<std::string> linkNames_;
    u64 transfers_ = 0;
    u64 totalWords_ = 0;
    u64 totalHopWords_ = 0;  ///< Σ words × hops (link occupancy words)
};

}  // namespace crophe::sim

#endif  // CROPHE_SIM_INTERCONNECT_H_
