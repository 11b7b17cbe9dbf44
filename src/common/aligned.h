#ifndef CROPHE_COMMON_ALIGNED_H_
#define CROPHE_COMMON_ALIGNED_H_

/**
 * @file
 * Cache-line-aligned flat buffer.
 *
 * The vectorized FHE kernels (DESIGN.md §10) operate on contiguous
 * 64-byte-aligned limb slabs so that AVX2/AVX-512 loads never split a
 * cache line and hardware prefetch sees a single linear stream.
 * AlignedVec is the minimal owning container for such data: fixed-size
 * after assign(), zero-initialized, copyable (RnsPoly values are passed
 * around by copy throughout the CKKS library).
 */

#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/types.h"

namespace crophe {

/** Allocation alignment for kernel-visible data, in bytes. */
inline constexpr std::size_t kCacheLineBytes = 64;

/** Fixed-size, 64-byte-aligned, zero-initialized, copyable buffer. */
template <typename T>
class AlignedVec
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "AlignedVec holds plain data only");

  public:
    AlignedVec() = default;

    explicit AlignedVec(std::size_t n) { assign(n); }

    AlignedVec(const AlignedVec &other) { copyFrom(other); }

    AlignedVec(AlignedVec &&other) noexcept
        : p_(std::exchange(other.p_, nullptr)),
          size_(std::exchange(other.size_, 0))
    {
    }

    AlignedVec &
    operator=(const AlignedVec &other)
    {
        if (this != &other)
            copyFrom(other);
        return *this;
    }

    AlignedVec &
    operator=(AlignedVec &&other) noexcept
    {
        if (this != &other) {
            release();
            p_ = std::exchange(other.p_, nullptr);
            size_ = std::exchange(other.size_, 0);
        }
        return *this;
    }

    ~AlignedVec() { release(); }

    /** Reallocate to @p n elements, all zero. */
    void
    assign(std::size_t n)
    {
        allocate(n);
        if (n != 0)
            std::memset(p_, 0, n * sizeof(T));
    }

    T *data() { return p_; }
    const T *data() const { return p_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T &operator[](std::size_t i) { return p_[i]; }
    const T &operator[](std::size_t i) const { return p_[i]; }

    T *begin() { return p_; }
    T *end() { return p_ + size_; }
    const T *begin() const { return p_; }
    const T *end() const { return p_ + size_; }

  private:
    /** Reallocate to @p n uninitialized elements. */
    void
    allocate(std::size_t n)
    {
        release();
        if (n == 0)
            return;
        p_ = static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t{kCacheLineBytes}));
        size_ = n;
    }

    /** Become a copy of @p other; the slab is written once, by memcpy. */
    void
    copyFrom(const AlignedVec &other)
    {
        if (size_ != other.size_)
            allocate(other.size_);
        if (size_ != 0)
            std::memcpy(p_, other.p_, size_ * sizeof(T));
    }

    void
    release()
    {
        if (p_ != nullptr)
            ::operator delete(p_, std::align_val_t{kCacheLineBytes});
        p_ = nullptr;
        size_ = 0;
    }

    T *p_ = nullptr;
    std::size_t size_ = 0;
};

}  // namespace crophe

#endif  // CROPHE_COMMON_ALIGNED_H_
