#ifndef CROPHE_COMMON_ARENA_H_
#define CROPHE_COMMON_ARENA_H_

/**
 * @file
 * Thread-local scratch arena (DESIGN.md §10).
 *
 * Hot FHE paths (BConv tiles, ModDown, key-switch) need short-lived
 * scratch buffers sized by runtime parameters. Allocating them with
 * malloc per call serializes threads on the allocator and fragments the
 * heap; the arena instead hands out 64-byte-aligned bump allocations
 * from per-thread blocks that are reused forever.
 *
 * Usage:
 *     ScratchArena::Scope scope;                    // marks the arena
 *     u64 *buf = ScratchArena::local().alloc<u64>(n);
 *     ...                                           // use buf
 *     // scope destructor rewinds the arena; buf is dead
 *
 * Determinism contract: the arena affects only *where* scratch lives,
 * never values — every allocation is scoped, nothing escapes a Scope,
 * and blocks are thread-private so results cannot depend on thread
 * count or allocation order.
 */

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/aligned.h"
#include "common/types.h"

namespace crophe {

/** Per-thread bump allocator with scope-based rewind. */
class ScratchArena
{
  public:
    ScratchArena() = default;
    ScratchArena(const ScratchArena &) = delete;
    ScratchArena &operator=(const ScratchArena &) = delete;

    /** The calling thread's arena (created on first use). */
    static ScratchArena &local();

    /**
     * High-water mark of usedBytes() across all thread arenas since
     * process start (relaxed fetch-max; telemetry only — never consulted
     * by any allocation decision).
     */
    static std::size_t globalPeakBytes();

    /** Scope rewinds executed across all threads since process start. */
    static u64 globalRewinds();

    /**
     * RAII marker: records the arena position on construction and
     * rewinds to it on destruction, releasing every allocation made in
     * between. Scopes nest.
     */
    class Scope
    {
      public:
        Scope() : Scope(local()) {}
        explicit Scope(ScratchArena &arena)
            : arena_(arena), block_(arena.cur_), offset_(arena.curOffset())
        {
        }
        ~Scope() { arena_.rewind(block_, offset_); }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        ScratchArena &arena_;
        std::size_t block_;
        std::size_t offset_;
    };

    /** A 64-byte-aligned allocation of @p count elements (not zeroed). */
    template <typename T>
    T *
    alloc(std::size_t count)
    {
        static_assert(alignof(T) <= kCacheLineBytes);
        return static_cast<T *>(allocBytes(count * sizeof(T)));
    }

    /** A 64-byte-aligned allocation of @p bytes bytes (not zeroed). */
    void *allocBytes(std::size_t bytes);

    /** Bytes currently handed out (for tests). */
    std::size_t usedBytes() const;

  private:
    struct Block
    {
        AlignedVec<unsigned char> buf;
        std::size_t offset = 0;
    };

    std::size_t curOffset() const;
    void rewind(std::size_t block, std::size_t offset);

    std::vector<std::unique_ptr<Block>> blocks_;
    std::size_t cur_ = 0;
};

}  // namespace crophe

#endif  // CROPHE_COMMON_ARENA_H_
