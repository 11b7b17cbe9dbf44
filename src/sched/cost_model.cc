#include "sched/cost_model.h"

#include <algorithm>

#include "common/logging.h"
#include "common/math_util.h"

namespace crophe::sched {

WorkloadResult
aggregateWorkload(const graph::Workload &w, const hw::HwConfig &cfg,
                  const std::vector<Schedule> &segment_schedules,
                  u32 clusters)
{
    CROPHE_ASSERT(segment_schedules.size() == w.segments.size(),
                  "one schedule per segment required");
    CROPHE_ASSERT(clusters >= 1, "clusters must be positive");

    WorkloadResult res;
    res.workload = w.name;
    res.design = cfg.name;
    res.clusters = clusters;

    for (std::size_t s = 0; s < w.segments.size(); ++s) {
        const auto &seg = w.segments[s];
        const auto &sched = segment_schedules[s];
        const u64 reps = seg.repetitions;

        const SchedStats &cold = sched.stats;
        const SchedStats &warm = sched.warmStats;
        u64 warm_nonaux = warm.dramWords > warm.auxDramWords
                              ? warm.dramWords - warm.auxDramWords
                              : 0;

        // The clusters co-run `clusters` repetitions at a time; aux
        // constants streamed cold/thrashing are multicast to all of them
        // (CROPHE-p, Section VII-A), so aux is charged per *round*.
        u64 rounds = ceilDiv(reps, clusters);

        SchedStats st;
        st.flops = cold.flops * reps;
        st.sramWords = cold.sramWords * reps;
        st.nocWords = cold.nocWords * reps;
        st.auxDramWords =
            cold.auxDramWords +
            (rounds > 0 ? rounds - 1 : 0) * warm.auxDramWords;
        st.dramWords = st.auxDramWords + warm_nonaux * (reps - 1) +
                       (cold.dramWords - cold.auxDramWords);

        // Wall time: the first round runs cold, the rest warm; chip-level
        // resources (DRAM/SRAM/NoC) bound the aggregate traffic.
        double compute_wall =
            cold.cycles +
            static_cast<double>(rounds > 0 ? rounds - 1 : 0) * warm.cycles;
        st.cycles = std::max({compute_wall, dramCycles(cfg, st.dramWords),
                              sramCycles(cfg, st.sramWords),
                              nocCycles(cfg, st.nocWords)});

        res.perSegment.emplace_back(seg.name, st);
        res.stats.accumulate(st);
        res.degraded = res.degraded || sched.degraded;
    }

    fillUtilization(res.stats, cfg);
    res.seconds = res.stats.cycles / (cfg.freqGhz * 1e9);
    return res;
}

void
fillUtilization(SchedStats &stats, const hw::HwConfig &cfg)
{
    if (stats.cycles <= 0)
        return;
    stats.peUtil = static_cast<double>(stats.flops) /
                   (stats.cycles * cfg.multsPerCycle());
    double noc_cap = static_cast<double>(cfg.numPes) * cfg.lanes / 4.0;
    stats.nocUtil = static_cast<double>(stats.nocWords) /
                    (stats.cycles * noc_cap);
    double sram_wpc = cfg.sramGBs / (cfg.wordBytes() * cfg.freqGhz);
    stats.sramBwUtil =
        static_cast<double>(stats.sramWords) / (stats.cycles * sram_wpc);
    double dram_wpc = cfg.dramGBs / (cfg.wordBytes() * cfg.freqGhz);
    stats.dramBwUtil =
        static_cast<double>(stats.dramWords) / (stats.cycles * dram_wpc);
}

}  // namespace crophe::sched
