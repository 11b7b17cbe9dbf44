#ifndef CROPHE_COMMON_MATH_UTIL_H_
#define CROPHE_COMMON_MATH_UTIL_H_

/**
 * @file
 * Small integer math helpers shared across modules.
 */

#include <bit>

#include "common/logging.h"
#include "common/types.h"

namespace crophe {

/** True iff @p x is a power of two (0 is not). */
constexpr bool
isPow2(u64 x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** floor(log2(x)); requires x > 0. */
constexpr u32
log2Floor(u64 x)
{
    return 63 - static_cast<u32>(std::countl_zero(x));
}

/** log2 of a power of two. */
inline u32
log2Exact(u64 x)
{
    CROPHE_ASSERT(isPow2(x), "log2Exact of non-power-of-two ", x);
    return log2Floor(x);
}

/** ceil(a / b) for b > 0. */
constexpr u64
ceilDiv(u64 a, u64 b)
{
    return (a + b - 1) / b;
}

/** Bit-reverse the low @p bits bits of @p x. */
constexpr u64
bitReverse(u64 x, u32 bits)
{
    u64 r = 0;
    for (u32 i = 0; i < bits; ++i) {
        r = (r << 1) | (x & 1);
        x >>= 1;
    }
    return r;
}

}  // namespace crophe

#endif  // CROPHE_COMMON_MATH_UTIL_H_
