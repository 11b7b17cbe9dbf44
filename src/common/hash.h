#ifndef CROPHE_COMMON_HASH_H_
#define CROPHE_COMMON_HASH_H_

/**
 * @file
 * The FNV-style mixing step behind every digest and structural hash:
 * the plan-cache key, the config, options and pod digests, and the
 * graph and group-memo hashes.
 */

#include <cstring>
#include <type_traits>

#include "common/types.h"

namespace crophe {

/** FNV-1a offset basis: the seed of every digest and structural hash. */
inline constexpr u64 kHashSeed = 1469598103934665603ull;

/** One FNV-style mixing step. */
inline void
hashMix(u64 &h, u64 v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 1099511628211ull;
}

/**
 * Mix a double by its IEEE-754 bit pattern. A template, so that integer
 * and bool arguments still take the u64 step without ambiguity.
 */
template <class T>
inline std::enable_if_t<std::is_same_v<T, double>>
hashMix(u64 &h, T v)
{
    u64 bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    hashMix(h, bits);
}

}  // namespace crophe

#endif  // CROPHE_COMMON_HASH_H_
