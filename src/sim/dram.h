#ifndef CROPHE_SIM_DRAM_H_
#define CROPHE_SIM_DRAM_H_

/**
 * @file
 * HBM off-chip memory model (the Ramulator 2 substitution documented in
 * DESIGN.md): multiple pseudo-channels, burst granularity, and row
 * hit/miss timing. Streaming accesses from one requester hit open rows;
 * switching requesters costs row activations, so interleaved traffic
 * sustains less than peak bandwidth — the first-order behaviour the
 * paper's evaluation relies on.
 *
 * With a FaultInjector attached (DESIGN.md §9) the model additionally
 * suffers the plan's transient read errors — ECC-corrected in place or
 * re-read with exponential backoff, each retry's latency charged to the
 * access — and fixed stall latency on the plan's stalled pseudo-channels.
 * Without one (the default) the fault path costs a single null check and
 * timing is bit-identical to the fault-free model.
 */

#include "common/math_util.h"
#include "fault/fault_injector.h"
#include "hw/config.h"
#include "sim/fifo.h"

namespace crophe::sim {

/** HBM timing/bandwidth model. */
class DramModel
{
  public:
    explicit DramModel(const hw::HwConfig &cfg);

    /**
     * Back-to-back accesses of @p words each by requester @p stream_id,
     * booked on a copy of the channel state that commit() writes back, so
     * the simulator's issue loop keeps it in registers. Nothing else may
     * use the model between construction and commit().
     */
    class Run
    {
      public:
        Run(DramModel &dram, u64 words, u32 stream_id)
            : dram_(dram),
              channel_(dram.freeAt_, dram.totalWords_, nullptr, words,
                       static_cast<double>(words) / dram.wordsPerCycle_),
              stream_(stream_id),
              ch_(stream_id % kChannels),
              rows_(std::max<u64>(1, ceilDiv(words, dram.rowWords_))),
              openLatency_(static_cast<double>(rows_ - 1) *
                           dram.rowMissPenalty_),
              closedLatency_(static_cast<double>(rows_) *
                             dram.rowMissPenalty_),
              open_(dram.lastStream_[ch_] == stream_id),
              firstOpen_(open_)
        {
        }

        /**
         * Book the next access, ready at @p ready; returns its completion.
         * With @p kHooks it also draws the access's faults and records its
         * burst, when an injector or a recorder is attached.
         */
        template <bool kHooks>
        SimTime
        access(SimTime ready)
        {
            if (channel_.words() == 0)
                return ready;
            // A requester switch on its pseudo-channel closes the open
            // rows; within a stream, accesses are sequential and hit open
            // rows except at row boundaries. Crossing into a fresh row is
            // always an activation: a continuing stream re-opens rows - 1
            // times (its first row is still open), a switching stream rows
            // times, and every activation pays the row-miss penalty up
            // front.
            double latency = open_ ? openLatency_ : closedLatency_;
            if constexpr (kHooks)
                if (dram_.faults_ != nullptr)
                    latency += dram_.faultLatency(ch_);
            const SimTime done = channel_.serve<kHooks>(ready, latency);
            if constexpr (kHooks)
                if (dram_.trace_ != nullptr)
                    dram_.recordBurst(ch_, channel_.words(), open_,
                                      channel_.start(), done);
            open_ = true;
            return done;
        }

        /** Write the channel state and the run's counters back. */
        void
        commit()
        {
            const u64 n = channel_.served();
            if (n == 0)
                return;
            channel_.commit();
            dram_.lastStream_[ch_] = stream_;
            // Only the run's first access can follow another stream.
            const u64 misses = n * (rows_ - 1) + (firstOpen_ ? 0 : 1);
            dram_.rowMisses_ += misses;
            dram_.rowHits_ += n * rows_ - misses;
        }

      private:
        DramModel &dram_;
        FifoRun channel_;
        u32 stream_;
        u32 ch_;
        u64 rows_;  ///< rows each access touches
        double openLatency_;    ///< rows - 1 activations
        double closedLatency_;  ///< rows activations
        bool open_;  ///< the next access continues the stream's open row
        bool firstOpen_;
    };

    /**
     * Request @p words for requester @p stream_id at time @p ready;
     * returns completion time.
     */
    SimTime access(SimTime ready, u64 words, u32 stream_id);

    /** Record every burst as a span on one trace track per pseudo-channel
     *  (with word count and row hit/miss as span arguments). */
    void attachTrace(telemetry::TraceRecorder *rec);

    /** Inject @p faults into every subsequent access (null = healthy). */
    void attachFaults(const fault::FaultInjector *faults);

    u64 totalWords() const { return totalWords_; }
    u64 rowHits() const { return rowHits_; }
    u64 rowMisses() const { return rowMisses_; }
    u64 rowWords() const { return rowWords_; }
    double rowMissPenalty() const { return rowMissPenalty_; }
    double wordsPerCycle() const { return wordsPerCycle_; }

    /** Fault accounting (all zero with no injector attached). @{ */
    u64 faultEccCorrected() const { return faultEccCorrected_; }
    u64 faultRetriedAccesses() const { return faultRetriedAccesses_; }
    u64 faultRetries() const { return faultRetries_; }
    u64 faultStalledBursts() const { return faultStalledBursts_; }
    /** @} */

  private:
    /** HBM pseudo-channels: concurrent streams retain row locality as
     *  long as they map to different channels. */
    static constexpr u32 kChannels = 16;
    static_assert(kChannels == fault::FaultPlan::kDramChannels,
                  "fault plans pick stalled channels out of this universe");

    void recordBurst(u32 ch, u64 words, bool row_hit, SimTime start,
                     SimTime done);
    /** Extra latency the fault plan charges this access (counts faults). */
    double faultLatency(u32 ch);

    double wordsPerCycle_;
    double rowMissPenalty_;  ///< cycles per row activation
    u64 rowWords_;           ///< words per DRAM row
    /** The channels share one FIFO server; its frontier. */
    SimTime freeAt_ = 0.0;
    u32 lastStream_[kChannels];
    u64 totalWords_ = 0;
    u64 rowHits_ = 0;
    u64 rowMisses_ = 0;
    telemetry::TraceRecorder *trace_ = nullptr;
    u32 chTrack_[kChannels] = {};  ///< lazily created trace track ids

    const fault::FaultInjector *faults_ = nullptr;
    u64 accessIndex_ = 0;  ///< local draw counter (deterministic order)
    const char *lastFault_ = nullptr;  ///< instant name for this access
    u64 faultEccCorrected_ = 0;
    u64 faultRetriedAccesses_ = 0;
    u64 faultRetries_ = 0;
    u64 faultStalledBursts_ = 0;
};

}  // namespace crophe::sim

#endif  // CROPHE_SIM_DRAM_H_
