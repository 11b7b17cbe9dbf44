#ifndef CROPHE_MAP_MAPPER_H_
#define CROPHE_MAP_MAPPER_H_

/**
 * @file
 * Operator placement onto the 2D PE array (Section IV-B).
 *
 * Consecutive operators are placed column-major from left to right so
 * forwarded data moves short distances; operators downstream of a
 * transpose are placed right-to-left starting at the transpose unit's
 * side, and multiple transposes split the array into horizontal bands.
 */

#include <vector>

#include "hw/config.h"
#include "sched/group.h"

namespace crophe::map {

/**
 * The PEs assigned to one operator: a contiguous run of @p pes ids
 * starting at @p firstPe and stepping +1 (or −1 when @p reversed),
 * clamped at the array edge — once the run reaches PE numPes−1 (or PE 0)
 * its remaining ids repeat that edge PE. A Transpose op has no run
 * (@p pes == 0): it sits on the transpose unit beside the array.
 * PE id p is column p / meshY, row p % meshY (column-major).
 */
struct PePlacement
{
    graph::OpId op = graph::kNoOp;
    u32 firstPe = 0;
    u32 pes = 0;
    bool reversed = false;
    double centroidX = 0.0;
    double centroidY = 0.0;
};

/** One internal edge as placed. */
struct PlacedEdge
{
    u32 producer = 0;  ///< index into GroupMapping::placements
    u32 consumer = 0;  ///< index into GroupMapping::placements
    u32 hops = 1;      ///< Manhattan hop count between the centroids
};

/** Placement of one spatial group. */
struct GroupMapping
{
    /** One placement per alloc, in SpatialGroup::allocs order. */
    std::vector<PePlacement> placements;
    /** Parallel to SpatialGroup::internalEdges. */
    std::vector<PlacedEdge> edges;
};

/**
 * Place one analyzed spatial group on the array of @p cfg into
 * @p mapping. Every field of @p mapping is overwritten; its storage is
 * reused, so a caller mapping group after group allocates only to grow
 * it.
 */
void mapGroup(const sched::SpatialGroup &group, const graph::Graph &g,
              const hw::HwConfig &cfg, GroupMapping &mapping);

}  // namespace crophe::map

#endif  // CROPHE_MAP_MAPPER_H_
