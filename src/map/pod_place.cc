#include "map/pod_place.h"

#include <algorithm>

#include "common/logging.h"
#include "sim/interconnect.h"

namespace crophe::map {

namespace {

u64
placementCost(const std::vector<u32> &chipOf,
              const std::vector<StageEdge> &edges, u32 ringChips)
{
    u64 cost = 0;
    for (const StageEdge &e : edges)
        cost += e.words * sim::Interconnect::ringHops(chipOf[e.from],
                                                      chipOf[e.to],
                                                      ringChips);
    return cost;
}

}  // namespace

std::vector<u32>
placeStagesOnRing(u32 stages, const std::vector<u32> &aliveChips,
                  u32 ringChips, const std::vector<StageEdge> &edges)
{
    CROPHE_ASSERT(stages >= 1 && stages <= aliveChips.size(),
                  "at most one stage per alive chip (", stages,
                  " stages, ", aliveChips.size(), " chips)");
    // A segment with fewer ops than alive chips cuts fewer stages; they
    // take the first alive chips and the rest idle for the segment.
    std::vector<u32> chipOf(aliveChips.begin(),
                            aliveChips.begin() + stages);
    if (stages <= 2 || edges.empty())
        return chipOf;

    // Adjacent-swap first-improvement descent. The swap neighborhood is
    // scanned in a fixed order and a pass with no improvement ends the
    // search, so the result depends only on the inputs.
    u64 cost = placementCost(chipOf, edges, ringChips);
    for (u32 pass = 0; pass < stages; ++pass) {
        bool improved = false;
        for (u32 s = 0; s + 1 < stages; ++s) {
            std::swap(chipOf[s], chipOf[s + 1]);
            const u64 candidate = placementCost(chipOf, edges, ringChips);
            if (candidate < cost) {
                cost = candidate;
                improved = true;
            } else {
                std::swap(chipOf[s], chipOf[s + 1]);
            }
        }
        if (!improved)
            break;
    }
    return chipOf;
}

}  // namespace crophe::map
