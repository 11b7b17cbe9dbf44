#ifndef CROPHE_GRAPH_GRAPH_H_
#define CROPHE_GRAPH_GRAPH_H_

/**
 * @file
 * The operator DAG, with the utilities the scheduler needs: topological
 * orders and structural hashing for merging redundant subgraphs
 * (Section V-D).
 */

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "graph/op.h"

namespace crophe::graph {

/** A producer→consumer edge; volume is the producer's output words. */
struct Edge
{
    OpId from;
    OpId to;
};

/**
 * Positions of the ids of a small list, sorted for binary search: the
 * allocation-light stand-in for a std::map<OpId, u32> built over one
 * window or group. A repeated id resolves to its last position, as
 * repeated assignment into a map would.
 */
class PositionIndex
{
  public:
    static constexpr u32 kNotFound = ~0u;

    /** Index positions 0..n-1, where position i holds @p id_at(i). */
    template <class IdAt>
    PositionIndex(u32 n, IdAt id_at)
    {
        sorted_.reserve(n);
        for (u32 i = 0; i < n; ++i)
            sorted_.push_back({id_at(i), i});
        std::sort(sorted_.begin(), sorted_.end());
    }

    /** Position of @p id, or kNotFound. */
    u32
    find(OpId id) const
    {
        auto it = std::upper_bound(sorted_.begin(), sorted_.end(),
                                   std::pair<OpId, u32>{id, kNotFound});
        if (it == sorted_.begin() || (--it)->first != id)
            return kNotFound;
        return it->second;
    }

  private:
    std::vector<std::pair<OpId, u32>> sorted_;
};

/** Directed acyclic graph of FHE operators. */
class Graph
{
  public:
    Graph() = default;

    /** Add a node; returns its id. */
    OpId add(Op op);

    /** Add a dependency edge from @p from to @p to. */
    void connect(OpId from, OpId to);

    /**
     * Replace both adjacency lists wholesale (deserialization support).
     * Edge-list order is semantically relevant — group analysis iterates
     * producers/consumers in insertion order — so a round-trip must restore
     * the exact lists, not re-derive them via connect() in some canonical
     * order. The lists must cover every node, name only in-range ids, hold
     * no self edge, and describe the same edge multiset from both sides.
     * Returns false and leaves the graph unchanged when they do not, so a
     * decoder of untrusted bytes fails soft.
     */
    [[nodiscard]] bool tryRestoreEdges(std::vector<std::vector<OpId>> &&succ,
                                       std::vector<std::vector<OpId>> &&pred);

    /** tryRestoreEdges for in-process callers: panics on bad lists. */
    void restoreEdges(std::vector<std::vector<OpId>> succ,
                      std::vector<std::vector<OpId>> pred);

    u32 size() const { return static_cast<u32>(ops_.size()); }
    const Op &op(OpId id) const { return ops_[id]; }
    Op &op(OpId id) { return ops_[id]; }
    const std::vector<Op> &ops() const { return ops_; }

    const std::vector<OpId> &consumers(OpId id) const { return succ_[id]; }
    const std::vector<OpId> &producers(OpId id) const { return pred_[id]; }

    /** Topological order of all node ids; panics on a cycle. */
    std::vector<OpId> topoOrder() const;

    /**
     * Topological order that clusters operators sharing an auxKey
     * adjacently whenever dependencies allow. This is what lets the
     * scheduler's (contiguous-window) group enumeration co-run the
     * same-evk fine-step rotations of the hybrid scheme (Section V-C) and
     * share their key with one fetch.
     */
    std::vector<OpId> topoOrderAuxAffinity() const;

    /** Sum of op flops. */
    u64 totalFlops() const;
    /** Sum of distinct auxiliary volumes (each auxKey counted once;
     *  keyless aux counted per op). */
    u64 totalAuxWords() const;

    /**
     * Structural hash of the subgraph induced by @p nodes: equal hashes ⇒
     * the subgraphs are (with overwhelming probability) isomorphic with
     * identical op shapes, letting the scheduler search each unique
     * subgraph once.
     */
    u64 structuralHash(const std::vector<OpId> &nodes) const;

    /**
     * Induced subgraph over @p nodes (kept in the given order) with the
     * boundary materialized: every edge from an op outside @p nodes adds
     * an Input op shaped like the external producer's output, and every
     * edge to an op outside adds an Output op — so a scheduler seeing only
     * the subgraph still charges the crossing ciphertexts as off-chip
     * traffic. Edges among @p nodes keep their insertion order. This is
     * what the pod partitioner hands each chip. Panics if @p nodes has
     * duplicates or out-of-range ids.
     */
    Graph inducedSubgraph(const std::vector<OpId> &nodes) const;

    /** Human-readable dump (for examples and debugging). */
    std::string toString() const;

  private:
    /** Why @p succ / @p pred cannot be this graph's adjacency lists, or
     *  null when they can (see tryRestoreEdges). */
    const char *edgeListsError(const std::vector<std::vector<OpId>> &succ,
                               const std::vector<std::vector<OpId>> &pred)
        const;

    std::vector<Op> ops_;
    std::vector<std::vector<OpId>> succ_;
    std::vector<std::vector<OpId>> pred_;
};

}  // namespace crophe::graph

#endif  // CROPHE_GRAPH_GRAPH_H_
