#ifndef CROPHE_MAP_POD_PLACE_H_
#define CROPHE_MAP_POD_PLACE_H_

/**
 * @file
 * Stage-to-chip placement for multi-accelerator pods (DESIGN.md §12).
 * The partitioner emits a logical pipeline of stages; this maps each
 * stage onto a physical chip of the ring so that the hop-weighted
 * inter-stage traffic is small. Placement starts from the identity
 * (stage i on the i-th alive chip — optimal when traffic is purely
 * between adjacent pipeline stages) and runs a deterministic
 * adjacent-swap local search for graphs whose cut edges skip stages.
 */

#include <vector>

#include "common/types.h"

namespace crophe::map {

/** Aggregated traffic between two pipeline stages. */
struct StageEdge
{
    u32 from = 0;
    u32 to = 0;
    u64 words = 0;
};

/**
 * Place @p stages pipeline stages onto the first @p stages of the
 * @p aliveChips ring positions (1 <= stages <= aliveChips.size(); ring
 * distance is computed over the physical ring of @p ringChips chips).
 * Returns the physical chip id per stage. Deterministic: fixed scan
 * order, first-improvement swaps, bounded passes.
 */
std::vector<u32> placeStagesOnRing(u32 stages,
                                   const std::vector<u32> &aliveChips,
                                   u32 ringChips,
                                   const std::vector<StageEdge> &edges);

}  // namespace crophe::map

#endif  // CROPHE_MAP_POD_PLACE_H_
