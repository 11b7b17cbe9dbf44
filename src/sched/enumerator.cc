#include "sched/enumerator.h"

#include "common/hash.h"
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
      topo_(g.topoOrderAuxAffinity()), pos_(g.size()),
      shape_(topo_.size()), memo_(memo)
{
    CROPHE_ASSERT(maxOps_ >= 1, "maxOps must be positive");
    for (u32 i = 0; i < topo_.size(); ++i) {
        pos_[topo_[i]] = i;
        shape_[i] = kHashSeed;
        graph::hashOpShape(shape_[i], g.op(topo_[i]));
    }
    byWindow_.assign(topo_.size() * maxOps_, nullptr);
    cfgKey_ = hw::configDigest(cfg_);
    hashMix(cfgKey_, mad ? 1 : 0);
}

u64
GroupEnumerator::windowKey(u32 begin, u32 len) const
{
    // Each op's shape digest and its consumers' window positions (~0 when
    // outside) give the window's internal structure. The key then folds
    // in everything analyzeSpatialGroup reads from OUTSIDE the window:
    // each external producer's output volume and Input-kind flag (they are
    // charged to SRAM/DRAM traffic), and the hardware/MAD context, so one
    // store can serve many configs. Without them, two windows with equal
    // internal structure but different upstream volumes would collide —
    // and a shared memo would then return whichever analysis was inserted
    // first, making results depend on thread timing.
    u64 h = kHashSeed;
    for (u32 i = begin; i < begin + len; ++i) {
        hashMix(h, shape_[i]);
        for (OpId c : g_->consumers(topo_[i])) {
            const u32 rel = pos_[c] - begin;
            hashMix(h, rel < len ? rel : ~0ull);
        }
    }
    for (u32 i = begin; i < begin + len; ++i) {
        for (OpId p : g_->producers(topo_[i])) {
            if (pos_[p] - begin < len)
                continue;  // inside the window
            const graph::Op &prod = g_->op(p);
            hashMix(h, prod.outputWords);
            hashMix(h, prod.kind == graph::OpKind::Input ? 1 : 0);
        }
    }
    hashMix(h, cfgKey_);
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
        u64 h = windowKey(begin, len);
        entry = memo_.find(h);
        if (entry != nullptr) {
            ++hits_;
        } else {
            std::vector<OpId> ops(topo_.begin() + begin,
                                  topo_.begin() + begin + len);
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
