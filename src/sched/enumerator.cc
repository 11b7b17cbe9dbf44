#include "sched/enumerator.h"

#include "common/logging.h"

namespace crophe::sched {

using graph::OpId;

namespace {

/** Replace every op id in @p group's allocs and edges by @p id_of(id). */
template <class IdOf>
void
relabel(SpatialGroup &group, IdOf id_of)
{
    for (auto &a : group.allocs)
        a.op = id_of(a.op);
    for (auto &e : group.internalEdges) {
        e.from = id_of(e.from);
        e.to = id_of(e.to);
    }
}

}  // namespace

const GroupMemo::Entry *
GroupMemo::find(u64 key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
}

std::pair<const GroupMemo::Entry *, bool>
GroupMemo::insert(u64 key, Entry value)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = map_.emplace(key, std::move(value));
    return {&it->second, inserted};
}

GroupEnumerator::GroupEnumerator(const graph::Graph &g, hw::HwConfig cfg,
                                 bool mad, u32 max_ops, GroupMemo &memo)
    : g_(&g), cfg_(std::move(cfg)), mad_(mad), maxOps_(max_ops),
      topo_(g.topoOrderAuxAffinity()), pos_(g.size()), memo_(memo)
{
    CROPHE_ASSERT(maxOps_ >= 1, "maxOps must be positive");
    for (u32 i = 0; i < topo_.size(); ++i)
        pos_[topo_[i]] = i;
    byWindow_.assign(topo_.size() * maxOps_, nullptr);
    u64 h = hw::configDigest(cfg_);
    h ^= (mad ? 0x9e3779b97f4a7c15ull : 0) + (h << 6) + (h >> 2);
    h *= 1099511628211ull;
    cfgKey_ = h;
}

u64
GroupEnumerator::windowKey(const std::vector<OpId> &ops, u32 begin) const
{
    // Structural hash extended with everything analyzeSpatialGroup reads
    // from OUTSIDE the window: each op's external producers contribute
    // their output volume and Input-kind flag (they are charged to
    // SRAM/DRAM traffic), and the hardware/MAD context is folded in so one
    // store can serve many configs. Without the extension, two windows
    // with equal internal structure but different upstream volumes would
    // collide — and a shared memo would then return whichever analysis was
    // inserted first, making results depend on thread timing.
    u64 h = g_->structuralHash(ops);
    auto mix = [&h](u64 v) {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        h *= 1099511628211ull;
    };
    for (OpId id : ops) {
        for (OpId p : g_->producers(id)) {
            if (pos_[p] - begin < ops.size())
                continue;  // inside the window
            const graph::Op &prod = g_->op(p);
            mix(prod.outputWords);
            mix(prod.kind == graph::OpKind::Input ? 1 : 0);
        }
    }
    mix(cfgKey_);
    return h;
}

const SpatialGroup *
GroupEnumerator::window(u32 begin, u32 len)
{
    if (len == 0 || len > maxOps_ || begin + len > topo_.size())
        return nullptr;

    const GroupMemo::Entry *&entry =
        byWindow_[static_cast<std::size_t>(begin) * maxOps_ + len - 1];
    if (entry == nullptr) {
        std::vector<OpId> ops(topo_.begin() + begin,
                              topo_.begin() + begin + len);
        u64 h = windowKey(ops, begin);
        entry = memo_.find(h);
        if (entry != nullptr) {
            ++hits_;
        } else {
            GroupMemo::Entry canonical;
            SpatialGroup group;
            if (analyzeSpatialGroup(*g_, ops, cfg_, mad_, group)) {
                relabel(group, [&](OpId id) { return pos_[id] - begin; });
                canonical = std::move(group);
            }
            auto [stored, inserted] = memo_.insert(h, std::move(canonical));
            entry = stored;
            // Losing the insert race counts as a hit: the winner's entry
            // is identical (the memo value is a pure function of the
            // key), so analyzed totals stay equal to the number of unique
            // keys no matter how threads interleave.
            if (inserted)
                ++analyzed_;
            else
                ++hits_;
        }
    }
    return entry->has_value() ? &**entry : nullptr;
}

SpatialGroup
GroupEnumerator::group(u32 begin, u32 len)
{
    const SpatialGroup *canonical = window(begin, len);
    CROPHE_ASSERT(canonical != nullptr, "window at ", begin, " of ", len,
                  " ops is infeasible");
    SpatialGroup out = *canonical;
    relabel(out, [&](u32 pos) { return topo_[begin + pos]; });
    return out;
}

}  // namespace crophe::sched
