#include "graph/graph.h"

#include <map>
#include <set>

#include "common/logging.h"

namespace crophe::graph {

Graph::Body &
Graph::ownBody()
{
    // The acquire load pairs with the release decrement of the last other
    // holder, so its reads of the body happen before the writes here.
    if (body_->refs.load(std::memory_order_acquire) != 1)
        release(std::exchange(body_, new Body(*body_)));
    return *body_;
}

OpId
Graph::add(Op op)
{
    Body &b = ownBody();
    OpId id = static_cast<OpId>(b.ops.size());
    op.id = id;
    b.ops.push_back(std::move(op));
    b.succ.emplace_back();
    b.pred.emplace_back();
    return id;
}

void
Graph::connect(OpId from, OpId to)
{
    CROPHE_ASSERT(from < size() && to < size(), "edge endpoint out of range");
    CROPHE_ASSERT(from != to, "self edge");
    Body &b = ownBody();
    b.succ[from].push_back(to);
    b.pred[to].push_back(from);
}

std::vector<OpId>
Graph::topoOrder() const
{
    std::vector<u32> indeg(size(), 0);
    for (OpId v = 0; v < size(); ++v)
        indeg[v] = static_cast<u32>(producers(v).size());

    std::vector<OpId> queue;
    for (OpId v = 0; v < size(); ++v)
        if (indeg[v] == 0)
            queue.push_back(v);

    std::vector<OpId> order;
    order.reserve(size());
    for (std::size_t head = 0; head < queue.size(); ++head) {
        OpId v = queue[head];
        order.push_back(v);
        for (OpId w : consumers(v)) {
            if (--indeg[w] == 0)
                queue.push_back(w);
        }
    }
    CROPHE_ASSERT(order.size() == size(), "graph has a cycle");
    return order;
}

std::vector<OpId>
Graph::topoOrderAuxAffinity() const
{
    std::vector<u32> indeg(size(), 0);
    for (OpId v = 0; v < size(); ++v)
        indeg[v] = static_cast<u32>(producers(v).size());

    // Ready set keyed for affinity selection.
    std::set<OpId> ready;
    for (OpId v = 0; v < size(); ++v)
        if (indeg[v] == 0)
            ready.insert(v);

    std::vector<OpId> order;
    order.reserve(size());
    std::string last_aux;
    while (!ready.empty()) {
        // Prefer a ready op with the same aux key as the last emitted op
        // (clustering same-evk work); otherwise the smallest id.
        OpId pick = *ready.begin();
        if (!last_aux.empty()) {
            for (OpId v : ready) {
                if (op(v).auxKey == last_aux) {
                    pick = v;
                    break;
                }
            }
        }
        ready.erase(pick);
        order.push_back(pick);
        if (!op(pick).auxKey.empty())
            last_aux = op(pick).auxKey;
        for (OpId w : consumers(pick))
            if (--indeg[w] == 0)
                ready.insert(w);
    }
    CROPHE_ASSERT(order.size() == size(), "graph has a cycle");
    return order;
}

u64
Graph::totalFlops() const
{
    u64 total = 0;
    for (const auto &op : ops())
        total += op.flops;
    return total;
}

u64
Graph::totalAuxWords() const
{
    u64 total = 0;
    std::set<std::string> seen;
    for (const auto &op : ops()) {
        if (op.auxWords == 0)
            continue;
        if (op.auxKey.empty()) {
            total += op.auxWords;
        } else if (seen.insert(op.auxKey).second) {
            total += op.auxWords;
        }
    }
    return total;
}

void
hashOpShape(u64 &h, const Op &op)
{
    hashMix(h, static_cast<u64>(op.kind));
    hashMix(h, op.n);
    hashMix(h, op.n1);
    hashMix(h, op.limbsIn);
    hashMix(h, op.limbsOut);
    hashMix(h, op.beta);
    hashMix(h, op.auxWords);
    // Aux identity matters: subgraphs touching different evks are not
    // interchangeable for sharing/caching decisions.
    hashMix(h, std::hash<std::string>{}(op.auxKey));
}

u64
Graph::contentHash() const
{
    u64 h = kHashSeed;
    hashMix(h, size());
    for (OpId id = 0; id < size(); ++id) {
        const Op &o = op(id);
        hashOpShape(h, o);
        hashMix(h, std::hash<std::string>{}(o.label));
        hashMix(h, o.n2);
        hashMix(h, o.inputWords);
        hashMix(h, o.outputWords);
        hashMix(h, o.flops);
        hashMix(h, o.streamAxes.size());
        for (StreamAxis a : o.streamAxes)
            hashMix(h, static_cast<u64>(a));
        hashMix(h, o.orientationSwitch ? 1 : 0);
        for (const auto *ids : {&consumers(id), &producers(id)}) {
            hashMix(h, ids->size());
            for (OpId v : *ids)
                hashMix(h, v);
        }
    }
    return h;
}

Graph
Graph::inducedSubgraph(const std::vector<OpId> &nodes) const
{
    std::map<OpId, OpId> local;
    Graph sub;
    for (OpId id : nodes) {
        CROPHE_ASSERT(id < size(), "subgraph node out of range");
        CROPHE_ASSERT(local.find(id) == local.end(),
                      "duplicate subgraph node ", id);
        local[id] = sub.add(op(id));
    }
    for (OpId id : nodes) {
        const OpId to = local[id];
        for (OpId p : producers(id)) {
            auto it = local.find(p);
            if (it != local.end()) {
                // Internal edges are connected from the consumer side (in
                // producer-list order) so both adjacency lists preserve
                // the original insertion order exactly.
                continue;
            }
            // The external producer becomes a boundary Input carrying the
            // crossing ciphertext's volume.
            const Op &ext = op(p);
            OpId in = sub.add(makeInput(ext.n, ext.limbsOut,
                                        "xchip:" + ext.label));
            sub.connect(in, to);
        }
        for (OpId p : producers(id)) {
            auto it = local.find(p);
            if (it != local.end())
                sub.connect(it->second, to);
        }
        for (OpId c : consumers(id)) {
            if (local.find(c) != local.end())
                continue;
            OpId out = sub.add(makeOutput(op(id).n, op(id).limbsOut));
            sub.connect(to, out);
        }
    }
    return sub;
}

}  // namespace crophe::graph
