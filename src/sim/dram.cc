#include "sim/dram.h"

#include <string>

#include "common/logging.h"
#include "common/math_util.h"
#include "telemetry/trace_recorder.h"

namespace crophe::sim {

namespace {

/** Words per cycle for the shared channel server; degenerate configs
 *  (zero bandwidth, frequency, or word size) would otherwise divide by
 *  zero and hand Server a rate of 0 or inf. */
double
dramWordsPerCycle(const hw::HwConfig &cfg)
{
    CROPHE_ASSERT(cfg.dramGBs > 0.0, "dramGBs must be positive, got ",
                  cfg.dramGBs);
    CROPHE_ASSERT(cfg.freqGhz > 0.0, "freqGhz must be positive, got ",
                  cfg.freqGhz);
    CROPHE_ASSERT(cfg.wordBytes() > 0, "wordBits must be at least 8, got ",
                  cfg.wordBits);
    return cfg.dramGBs / (cfg.wordBytes() * cfg.freqGhz);
}

}  // namespace

DramModel::DramModel(const hw::HwConfig &cfg)
    : wordsPerCycle_(dramWordsPerCycle(cfg)),
      rowMissPenalty_(40.0),
      rowWords_(static_cast<u64>(2048.0 / cfg.wordBytes()))
{
    for (auto &s : lastStream_)
        s = ~0u;
}

SimTime
DramModel::access(SimTime ready, u64 words, u32 stream_id)
{
    Run run(*this, words, stream_id);
    const SimTime done = run.access<true>(ready);
    run.commit();
    return done;
}

double
DramModel::faultLatency(u32 ch)
{
    // Local draw counter: decisions depend only on (seed, site, index),
    // and the index advances in deterministic simulated-event order.
    u64 n = accessIndex_++;
    double extra = 0.0;
    if (faults_->channelStalled(ch)) {
        ++faultStalledBursts_;
        extra += faults_->plan().channelStallCycles;
    }
    if (faults_->dramReadError(n)) {
        if (faults_->dramEccCorrected(n)) {
            // Corrected in the memory controller: counted, no retry cost.
            ++faultEccCorrected_;
            lastFault_ = "dram ecc";
        } else {
            u32 retries = faults_->dramRetries(n);
            ++faultRetriedAccesses_;
            faultRetries_ += retries;
            extra += faults_->retryBackoffCycles(retries);
            CROPHE_WARN_EVERY_N(1000, "transient DRAM read error: ",
                                retries, " retr",
                                retries == 1 ? "y" : "ies",
                                " with exponential backoff");
            lastFault_ = "dram retry";
        }
    }
    return extra;
}

void
DramModel::attachTrace(telemetry::TraceRecorder *rec)
{
    trace_ = rec;
}

void
DramModel::attachFaults(const fault::FaultInjector *faults)
{
    // An empty plan must be indistinguishable from a healthy run, so it
    // never even takes the fault branch in access().
    faults_ = (faults != nullptr && !faults->plan().empty()) ? faults
                                                             : nullptr;
}

void
DramModel::recordBurst(u32 ch, u64 words, bool row_hit, SimTime start,
                       SimTime done)
{
    if (chTrack_[ch] == 0)
        chTrack_[ch] = trace_->track("DRAM ch" + std::to_string(ch));
    // The shared channel server serializes all bursts, so per-channel
    // spans never overlap.
    trace_->complete(chTrack_[ch], "burst", start, done - start,
                     {{"words", static_cast<double>(words)},
                      {"rowHit", row_hit ? 1.0 : 0.0}});
    // Per-fault Perfetto instants, pinned to the burst they hit.
    if (lastFault_ != nullptr) {
        trace_->instant(lastFault_, start);
        lastFault_ = nullptr;
    }
}

}  // namespace crophe::sim
