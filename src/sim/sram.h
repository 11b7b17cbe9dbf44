#ifndef CROPHE_SIM_SRAM_H_
#define CROPHE_SIM_SRAM_H_

/**
 * @file
 * Banked global-buffer model: single-ported banks at doubled frequency
 * (Section VI). Bank conflicts degrade sustained bandwidth by a fixed
 * efficiency factor.
 */

#include "hw/config.h"
#include "sim/fifo.h"

namespace crophe::sim {

/** Multi-bank SRAM global buffer. */
class SramModel
{
  public:
    explicit SramModel(const hw::HwConfig &cfg);

    /** Back-to-back accesses of @p words each (see FifoRun). */
    FifoRun
    run(u64 words)
    {
        return {freeAt_, totalWords_, &spans_, words,
                static_cast<double>(words) / wordsPerCycle_};
    }

    /** Move @p words through the buffer starting no earlier than @p ready. */
    SimTime access(SimTime ready, u64 words);

    /** Record bank-group occupancy spans on an "SRAM banks" trace track. */
    void attachTrace(telemetry::TraceRecorder *rec);

    u64 totalWords() const { return totalWords_; }
    u64 capacityWords() const { return capacityWords_; }

  private:
    static constexpr double kBankEfficiency = 0.9;

    double wordsPerCycle_;  ///< sustained, after bank conflicts
    SimTime freeAt_ = 0.0;
    u64 capacityWords_;
    u64 totalWords_ = 0;
    SpanTrack spans_;
};

}  // namespace crophe::sim

#endif  // CROPHE_SIM_SRAM_H_
