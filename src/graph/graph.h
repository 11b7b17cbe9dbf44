#ifndef CROPHE_GRAPH_GRAPH_H_
#define CROPHE_GRAPH_GRAPH_H_

/**
 * @file
 * The operator DAG, with the utilities the scheduler needs: topological
 * orders, the op-shape digest its group memo keys are built from (merging
 * redundant subgraphs, Section V-D), and the exact-graph hash that keys
 * the plan cache.
 */

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/types.h"
#include "graph/op.h"

namespace crophe::graph {

/**
 * Mix an op's shape fields into @p h: kind, loop shape, limb counts,
 * digit count, aux volume and aux identity.
 */
void hashOpShape(u64 &h, const Op &op);

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

/**
 * Directed acyclic graph of FHE operators.
 *
 * Copies share one body holding the ops and both adjacency lists, so
 * copying a graph (into every Schedule, for one) costs a reference-count
 * bump. add() and connect() are the only mutators: each clones the body
 * first when another copy still holds it (copy-on-write), so no copy
 * ever sees another's later edits. A moved-from graph may only be
 * assigned to or destroyed.
 */
class Graph
{
  public:
    Graph() : body_(new Body) {}
    Graph(const Graph &other) noexcept : body_(other.body_)
    {
        body_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    Graph(Graph &&other) noexcept : body_(std::exchange(other.body_, nullptr))
    {
    }
    Graph &operator=(Graph other) noexcept
    {
        std::swap(body_, other.body_);
        return *this;
    }
    ~Graph() { release(body_); }

    /** Add a node; returns its id. */
    OpId add(Op op);

    /** Add a dependency edge from @p from to @p to. */
    void connect(OpId from, OpId to);

    u32 size() const { return static_cast<u32>(body_->ops.size()); }
    const Op &op(OpId id) const { return body_->ops[id]; }
    const std::vector<Op> &ops() const { return body_->ops; }

    const std::vector<OpId> &consumers(OpId id) const
    {
        return body_->succ[id];
    }
    const std::vector<OpId> &producers(OpId id) const
    {
        return body_->pred[id];
    }

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
     * Hash of the exact graph: every op in id order (its shape and every
     * other Op field) with both adjacency lists in insertion order. Equal
     * hashes ⇒ (with overwhelming probability) the same ops under the same
     * ids; it keys the plan cache and the serving catalog's batching.
     */
    u64 contentHash() const;

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

  private:
    /** The storage copies share, with the count of graphs holding it. */
    struct Body
    {
        std::vector<Op> ops;
        std::vector<std::vector<OpId>> succ;
        std::vector<std::vector<OpId>> pred;
        std::atomic<u32> refs{1};

        Body() = default;
        Body(const Body &other)
            : ops(other.ops), succ(other.succ), pred(other.pred)
        {
        }
    };

    static void
    release(Body *body) noexcept
    {
        if (body != nullptr &&
            body->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
            delete body;
    }

    /** The body, cloned first if another graph shares it. */
    Body &ownBody();

    Body *body_;
};

}  // namespace crophe::graph

#endif  // CROPHE_GRAPH_GRAPH_H_
