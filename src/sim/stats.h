#ifndef CROPHE_SIM_STATS_H_
#define CROPHE_SIM_STATS_H_

/**
 * @file
 * Simulation statistics: cycle counts plus per-resource busy/traffic
 * numbers, reported beside the scheduler's SchedStats (Table IV,
 * Figure 11).
 */

#include <string>

#include "common/types.h"

namespace crophe::telemetry {
class StatsRegistry;
}  // namespace crophe::telemetry

namespace crophe::sim {

/** Result of simulating one schedule. */
struct SimStats
{
    double cycles = 0.0;
    u64 dramWords = 0;
    u64 sramWords = 0;
    u64 nocWords = 0;
    u64 transposeWords = 0;
    u64 flops = 0;
    /** Per op, 1 plus the chunk count of each distinct producer
     *  (DESIGN.md §4). */
    u64 events = 0;
    double peBusy = 0.0;  ///< summed PE-group busy cycles
    u64 dramRowHits = 0;
    u64 dramRowMisses = 0;

    /**
     * Fault-injection accounting (DESIGN.md §9). All zero — and
     * faultsEnabled false — when no fault plan is active, in which case
     * accumulateInto() registers no fault.* paths at all, keeping healthy
     * stats dumps byte-identical to pre-fault builds. @{
     */
    bool faultsEnabled = false;
    u64 faultDramEcc = 0;       ///< reads corrected in place by ECC
    u64 faultDramRetried = 0;   ///< reads that needed re-issue
    u64 faultDramRetries = 0;   ///< total re-issues (with backoff)
    u64 faultDramStalls = 0;    ///< bursts hitting a stalled channel
    u64 faultNocReroutes = 0;   ///< transfers detoured around dead links
    /** @} */

    /** DRAM row-buffer hit fraction (0 when no rows were touched). */
    double dramRowHitRate() const;

    /**
     * Accumulate (+=) these stats into @p reg under dotted paths below
     * @p prefix ("sim.cycles", "sim.dram.words", ...). Repeated calls sum,
     * so a multi-segment run's registry holds the workload totals.
     */
    void accumulateInto(telemetry::StatsRegistry &reg,
                        const std::string &prefix = "sim") const;
};

}  // namespace crophe::sim

#endif  // CROPHE_SIM_STATS_H_
