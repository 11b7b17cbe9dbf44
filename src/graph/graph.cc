#include "graph/graph.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "common/logging.h"

namespace crophe::graph {

OpId
Graph::add(Op op)
{
    OpId id = static_cast<OpId>(ops_.size());
    op.id = id;
    ops_.push_back(std::move(op));
    succ_.emplace_back();
    pred_.emplace_back();
    return id;
}

void
Graph::connect(OpId from, OpId to)
{
    CROPHE_ASSERT(from < size() && to < size(), "edge endpoint out of range");
    CROPHE_ASSERT(from != to, "self edge");
    succ_[from].push_back(to);
    pred_[to].push_back(from);
}

const char *
Graph::edgeListsError(const std::vector<std::vector<OpId>> &succ,
                      const std::vector<std::vector<OpId>> &pred) const
{
    const std::size_t n = ops_.size();
    if (succ.size() != n || pred.size() != n)
        return "adjacency lists must cover every node";
    // Bucket the successor edges by head (CSR, tails ascending), then
    // compare each head's bucket with its sorted predecessor list.
    std::vector<u32> start(n + 1, 0);
    for (OpId v = 0; v < n; ++v) {
        for (OpId w : succ[v]) {
            if (w >= n || w == v)
                return "bad successor edge";
            ++start[w + 1];
        }
    }
    for (std::size_t w = 0; w < n; ++w)
        start[w + 1] += start[w];
    std::vector<OpId> tails(start[n]);
    std::vector<u32> fill(start.begin(), start.end() - 1);
    for (OpId v = 0; v < n; ++v)
        for (OpId w : succ[v])
            tails[fill[w]++] = v;

    std::vector<OpId> sorted;
    for (OpId w = 0; w < n; ++w) {
        for (OpId v : pred[w])
            if (v >= n || v == w)
                return "bad predecessor edge";
        sorted.assign(pred[w].begin(), pred[w].end());
        std::sort(sorted.begin(), sorted.end());
        if (!std::equal(sorted.begin(), sorted.end(),
                        tails.begin() + start[w],
                        tails.begin() + start[w + 1]))
            return "succ/pred lists disagree";
    }
    return nullptr;
}

bool
Graph::tryRestoreEdges(std::vector<std::vector<OpId>> &&succ,
                       std::vector<std::vector<OpId>> &&pred)
{
    if (edgeListsError(succ, pred) != nullptr)
        return false;
    succ_ = std::move(succ);
    pred_ = std::move(pred);
    return true;
}

void
Graph::restoreEdges(std::vector<std::vector<OpId>> succ,
                    std::vector<std::vector<OpId>> pred)
{
    const char *error = edgeListsError(succ, pred);
    CROPHE_ASSERT(error == nullptr, error);
    succ_ = std::move(succ);
    pred_ = std::move(pred);
}

std::vector<OpId>
Graph::topoOrder() const
{
    std::vector<u32> indeg(size(), 0);
    for (OpId v = 0; v < size(); ++v)
        indeg[v] = static_cast<u32>(pred_[v].size());

    std::vector<OpId> queue;
    for (OpId v = 0; v < size(); ++v)
        if (indeg[v] == 0)
            queue.push_back(v);

    std::vector<OpId> order;
    order.reserve(size());
    for (std::size_t head = 0; head < queue.size(); ++head) {
        OpId v = queue[head];
        order.push_back(v);
        for (OpId w : succ_[v]) {
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
        indeg[v] = static_cast<u32>(pred_[v].size());

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
                if (ops_[v].auxKey == last_aux) {
                    pick = v;
                    break;
                }
            }
        }
        ready.erase(pick);
        order.push_back(pick);
        if (!ops_[pick].auxKey.empty())
            last_aux = ops_[pick].auxKey;
        for (OpId w : succ_[pick])
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
    for (const auto &op : ops_)
        total += op.flops;
    return total;
}

u64
Graph::totalAuxWords() const
{
    u64 total = 0;
    std::set<std::string> seen;
    for (const auto &op : ops_) {
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

u64
Graph::structuralHash(const std::vector<OpId> &nodes) const
{
    // Order-sensitive FNV-style hash over op shapes and the edge structure
    // relabelled to positions within @p nodes.
    PositionIndex index(static_cast<u32>(nodes.size()),
                        [&](u32 i) { return nodes[i]; });

    u64 h = 1469598103934665603ull;
    auto mix = [&h](u64 v) {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        h *= 1099511628211ull;
    };

    for (OpId id : nodes) {
        const Op &op = ops_[id];
        mix(static_cast<u64>(op.kind));
        mix(op.n);
        mix(op.n1);
        mix(op.limbsIn);
        mix(op.limbsOut);
        mix(op.beta);
        mix(op.auxWords);
        // Aux identity matters: subgraphs touching different evks are not
        // interchangeable for sharing/caching decisions.
        mix(std::hash<std::string>{}(op.auxKey));
        for (OpId c : succ_[id]) {
            u32 pos = index.find(c);
            mix(pos == PositionIndex::kNotFound ? ~0ull : pos);
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
        local[id] = sub.add(ops_[id]);
    }
    for (OpId id : nodes) {
        const OpId to = local[id];
        for (OpId p : pred_[id]) {
            auto it = local.find(p);
            if (it != local.end()) {
                // Internal edges are connected from the consumer side (in
                // producer-list order) so both adjacency lists preserve
                // the original insertion order exactly.
                continue;
            }
            // The external producer becomes a boundary Input carrying the
            // crossing ciphertext's volume.
            const Op &ext = ops_[p];
            OpId in = sub.add(makeInput(ext.n, ext.limbsOut,
                                        "xchip:" + ext.label));
            sub.connect(in, to);
        }
        for (OpId p : pred_[id]) {
            auto it = local.find(p);
            if (it != local.end())
                sub.connect(it->second, to);
        }
        for (OpId c : succ_[id]) {
            if (local.find(c) != local.end())
                continue;
            OpId out = sub.add(makeOutput(ops_[id].n, ops_[id].limbsOut));
            sub.connect(to, out);
        }
    }
    return sub;
}

std::string
Graph::toString() const
{
    std::ostringstream os;
    for (OpId v : topoOrder()) {
        const Op &op = ops_[v];
        os << v << ": " << op.label << " [" << opKindName(op.kind) << " l="
           << op.limbsIn << "->" << op.limbsOut << " flops=" << op.flops
           << "]";
        if (!succ_[v].empty()) {
            os << " ->";
            for (OpId w : succ_[v])
                os << " " << w;
        }
        os << "\n";
    }
    return os.str();
}

}  // namespace crophe::graph
