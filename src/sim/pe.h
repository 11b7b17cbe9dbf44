#ifndef CROPHE_SIM_PE_H_
#define CROPHE_SIM_PE_H_

/**
 * @file
 * PE-group execution model: the PEs allocated to one operator execute its
 * chunks in order, fully pipelined at the lane level (Section IV-A).
 */

#include "sim/fifo.h"

namespace crophe::sim {

/**
 * The serial chunk executor for one operator's PE allocation. It is a
 * small value: the simulator's issue loop keeps one in a local while it
 * issues the operator's chunks.
 */
class PeGroup
{
  public:
    explicit PeGroup(double compute_per_chunk) : compute_(compute_per_chunk)
    {
    }

    /** Execute the next chunk once its inputs are ready at @p ready. */
    SimTime
    executeChunk(SimTime ready)
    {
        bookFifo(freeAt_, ready, compute_);
        busy_ += compute_;
        return freeAt_;
    }

    double busyCycles() const { return busy_; }

  private:
    double compute_;
    SimTime freeAt_ = 0.0;
    double busy_ = 0.0;
};

}  // namespace crophe::sim

#endif  // CROPHE_SIM_PE_H_
