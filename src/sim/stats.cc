#include "sim/stats.h"

#include "telemetry/stats_registry.h"

namespace crophe::sim {

double
SimStats::dramRowHitRate() const
{
    u64 rows = dramRowHits + dramRowMisses;
    return rows ? static_cast<double>(dramRowHits) /
                      static_cast<double>(rows)
                : 0.0;
}

void
SimStats::accumulateInto(telemetry::StatsRegistry &reg,
                         const std::string &prefix) const
{
    reg.scalar(prefix + ".cycles", "simulated cycles") += cycles;
    reg.counter(prefix + ".flops", "modular multiplications retired") +=
        flops;
    reg.counter(prefix + ".events", "discrete events processed") += events;
    reg.scalar(prefix + ".pe.busyCycles", "summed PE-group busy cycles") +=
        peBusy;
    reg.counter(prefix + ".dram.words", "off-chip words transferred") +=
        dramWords;
    telemetry::Counter &hits =
        reg.counter(prefix + ".dram.rowHits", "DRAM row-buffer hits");
    hits += dramRowHits;
    telemetry::Counter &misses =
        reg.counter(prefix + ".dram.rowMisses", "DRAM row activations");
    misses += dramRowMisses;
    if (!reg.has(prefix + ".dram.rowHitRate")) {
        reg.addFormula(prefix + ".dram.rowHitRate",
                       "row hits / (hits + misses)", [&hits, &misses] {
                           u64 rows = hits.count() + misses.count();
                           return rows ? static_cast<double>(hits.count()) /
                                             static_cast<double>(rows)
                                       : 0.0;
                       });
    }
    reg.counter(prefix + ".sram.words", "global-buffer words transferred") +=
        sramWords;
    reg.counter(prefix + ".noc.words", "mesh-forwarded words") += nocWords;
    reg.counter(prefix + ".transpose.words",
                "words streamed through the transpose unit") +=
        transposeWords;
    if (faultsEnabled) {
        // Only a run with an active fault plan creates fault.* paths, so
        // healthy registry dumps stay byte-identical to pre-fault builds.
        reg.counter(prefix + ".fault.dram.eccCorrected",
                    "DRAM reads corrected in place by ECC") += faultDramEcc;
        reg.counter(prefix + ".fault.dram.retriedAccesses",
                    "DRAM reads re-issued after a transient error") +=
            faultDramRetried;
        reg.counter(prefix + ".fault.dram.retries",
                    "total DRAM re-issues (exponential backoff)") +=
            faultDramRetries;
        reg.counter(prefix + ".fault.dram.stalledBursts",
                    "bursts that hit a stalled pseudo-channel") +=
            faultDramStalls;
        reg.counter(prefix + ".fault.noc.reroutes",
                    "transfers detoured around a failed link") +=
            faultNocReroutes;
    }
}

}  // namespace crophe::sim
