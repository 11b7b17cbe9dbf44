#include "fhe/modarith.h"

namespace crophe::fhe {

namespace {

/** Compute floor(2^128 / q) as (hi, lo) by 128-bit long division. */
void
barrettRatio(u64 q, u64 &hi, u64 &lo)
{
    // 2^128 / q = ((2^128 - 1) / q) adjusted: since q does not divide
    // 2^128 (q odd > 1), floor(2^128/q) == floor((2^128-1)/q).
    u128 all_ones = ~static_cast<u128>(0);
    u128 ratio = all_ones / q;
    hi = static_cast<u64>(ratio >> 64);
    lo = static_cast<u64>(ratio);
}

}  // namespace

Modulus::Modulus(u64 q) : q_(q)
{
    CROPHE_ASSERT(q > 2 && q < (1ULL << 60) && (q & 1) == 1,
                  "modulus out of range: ", q);
    barrettRatio(q, ratio1_, ratio0_);
}

u64
Modulus::pow(u64 a, u64 e) const
{
    u64 base = reduce64(a);
    u64 result = 1;
    while (e != 0) {
        if (e & 1)
            result = mul(result, base);
        base = mul(base, base);
        e >>= 1;
    }
    return result;
}

u64
Modulus::inv(u64 a) const
{
    // q is prime, so a^(q-2) is the inverse by Fermat's little theorem.
    CROPHE_ASSERT(a % q_ != 0, "no inverse of 0 mod ", q_);
    return pow(a, q_ - 2);
}

}  // namespace crophe::fhe
