#include "common/arena.h"

#include <algorithm>

#include "common/logging.h"

namespace crophe {

namespace {

/** First block size; later blocks double until kMaxBlockBytes. */
constexpr std::size_t kMinBlockBytes = 1u << 20;
constexpr std::size_t kMaxBlockBytes = 64u << 20;

std::size_t
roundUpAligned(std::size_t bytes)
{
    return (bytes + kCacheLineBytes - 1) & ~(kCacheLineBytes - 1);
}

/** Process-wide telemetry (relaxed: counts need no ordering). */
std::atomic<std::size_t> g_peak_bytes{0};
std::atomic<u64> g_rewinds{0};

void
notePeak(std::size_t used)
{
    std::size_t seen = g_peak_bytes.load(std::memory_order_relaxed);
    while (used > seen &&
           !g_peak_bytes.compare_exchange_weak(seen, used,
                                               std::memory_order_relaxed)) {
    }
}

}  // namespace

ScratchArena &
ScratchArena::local()
{
    thread_local ScratchArena arena;
    return arena;
}

std::size_t
ScratchArena::globalPeakBytes()
{
    return g_peak_bytes.load(std::memory_order_relaxed);
}

u64
ScratchArena::globalRewinds()
{
    return g_rewinds.load(std::memory_order_relaxed);
}

void *
ScratchArena::allocBytes(std::size_t bytes)
{
    bytes = roundUpAligned(std::max<std::size_t>(bytes, 1));
    // Advance through existing blocks looking for room; each visited
    // block's offset is left as-is so rewind() can restore it.
    while (cur_ < blocks_.size()) {
        Block &b = *blocks_[cur_];
        if (b.buf.size() - b.offset >= bytes) {
            void *p = b.buf.data() + b.offset;
            b.offset += bytes;
            notePeak(usedBytes());
            return p;
        }
        ++cur_;
    }
    std::size_t want = kMinBlockBytes;
    if (!blocks_.empty())
        want = std::min(blocks_.back()->buf.size() * 2, kMaxBlockBytes);
    want = std::max(want, bytes);
    auto block = std::make_unique<Block>();
    block->buf.assign(want);
    block->offset = bytes;
    blocks_.push_back(std::move(block));
    cur_ = blocks_.size() - 1;
    notePeak(usedBytes());
    return blocks_.back()->buf.data();
}

std::size_t
ScratchArena::usedBytes() const
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < blocks_.size() && i <= cur_; ++i)
        total += blocks_[i]->offset;
    return total;
}

std::size_t
ScratchArena::curOffset() const
{
    return cur_ < blocks_.size() ? blocks_[cur_]->offset : 0;
}

void
ScratchArena::rewind(std::size_t block, std::size_t offset)
{
    CROPHE_ASSERT(block <= cur_, "scope rewind past live allocations");
    g_rewinds.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = block; i < blocks_.size(); ++i)
        blocks_[i]->offset = (i == block) ? offset : 0;
    cur_ = block;
    if (cur_ >= blocks_.size())
        cur_ = blocks_.empty() ? 0 : blocks_.size() - 1;
}

}  // namespace crophe
