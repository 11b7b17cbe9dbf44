#ifndef CROPHE_SIM_TRANSPOSE_UNIT_H_
#define CROPHE_SIM_TRANSPOSE_UNIT_H_

/**
 * @file
 * SRAM-based transpose unit (Section IV-A): stages a tensor and emits it
 * in the transposed orientation. The simulator charges the staging
 * buffer's port traffic; the buffer's size enters only the area model.
 */

#include "hw/config.h"
#include "sim/fifo.h"

namespace crophe::sim {

/** On-chip transpose unit. */
class TransposeUnit
{
  public:
    explicit TransposeUnit(const hw::HwConfig &cfg);

    /** Back-to-back transposes of @p words each (see FifoRun). Each word
     *  is written into the staging buffer and read back transposed (2x
     *  the port traffic). */
    FifoRun
    run(u64 words)
    {
        return {freeAt_, totalWords_, &spans_, words,
                2.0 * static_cast<double>(words) / rate_};
    }

    /** Transpose @p words starting at @p ready; returns completion. */
    SimTime transpose(SimTime ready, u64 words);

    /** Record staging-port occupancy spans on a "Transpose unit" track. */
    void attachTrace(telemetry::TraceRecorder *rec);

    u64 totalWords() const { return totalWords_; }

  private:
    double rate_;  ///< words per cycle through the read+write ports
    SimTime freeAt_ = 0.0;
    u64 totalWords_ = 0;
    SpanTrack spans_;
};

}  // namespace crophe::sim

#endif  // CROPHE_SIM_TRANSPOSE_UNIT_H_
