#ifndef CROPHE_FHE_MODARITH_H_
#define CROPHE_FHE_MODARITH_H_

/**
 * @file
 * Modular arithmetic over word-sized primes.
 *
 * CROPHE PE lanes implement Barrett reduction (Section IV-A); this module is
 * the functional counterpart used by the CKKS library. A Modulus caches the
 * two-word Barrett constant floor(2^128 / q) for its prime, and ShoupMul
 * provides the precomputed-quotient multiplication that NTT butterflies use.
 */

#include "common/logging.h"
#include "common/types.h"

namespace crophe::fhe {

/**
 * A word-sized prime modulus with a cached Barrett constant.
 *
 * Valid moduli are odd primes in (2, 2^60); this covers the 28/36/64-bit
 * machine-word regimes evaluated in the paper (a "64-bit word" accelerator
 * still operates on sub-62-bit RNS primes).
 */
class Modulus
{
  public:
    Modulus() : q_(0), ratio0_(0), ratio1_(0) {}

    /** @param q odd prime, 2 < q < 2^60. */
    explicit Modulus(u64 q);

    u64 value() const { return q_; }

    /** Low word of floor(2^128 / q) (kernel BarrettView plumbing). */
    u64 barrettLo() const { return ratio0_; }
    /** High word of floor(2^128 / q). */
    u64 barrettHi() const { return ratio1_; }

    /** (a + b) mod q; inputs must already be < q. */
    u64
    add(u64 a, u64 b) const
    {
        u64 s = a + b;
        return s >= q_ ? s - q_ : s;
    }

    /** (a - b) mod q; inputs must already be < q. */
    u64
    sub(u64 a, u64 b) const
    {
        return a >= b ? a - b : a + q_ - b;
    }

    /** (-a) mod q. */
    u64 neg(u64 a) const { return a == 0 ? 0 : q_ - a; }

    /**
     * Barrett reduction of an arbitrary 128-bit value to [0, q).
     *
     * Computes quot = floor(x * floor(2^128/q) / 2^128), which
     * underestimates floor(x/q) by at most 2; the tail loop corrects.
     */
    u64
    reduce(u128 x) const
    {
        u64 xlo = static_cast<u64>(x);
        u64 xhi = static_cast<u64>(x >> 64);
        u64 carry =
            static_cast<u64>((static_cast<u128>(xlo) * ratio0_) >> 64);
        u128 mid = static_cast<u128>(xlo) * ratio1_ +
                   static_cast<u128>(xhi) * ratio0_ + carry;
        u64 quot = static_cast<u64>(mid >> 64) + xhi * ratio1_;
        u64 r = xlo - quot * q_;
        while (r >= q_)
            r -= q_;
        return r;
    }

    /** Reduce a single 64-bit value to [0, q). */
    u64 reduce64(u64 x) const { return reduce(static_cast<u128>(x)); }

    /** (a * b) mod q via Barrett. */
    u64
    mul(u64 a, u64 b) const
    {
        return reduce(static_cast<u128>(a) * b);
    }

    /** a^e mod q by square-and-multiply. */
    u64 pow(u64 a, u64 e) const;

    /** Multiplicative inverse; requires gcd(a, q) == 1. */
    u64 inv(u64 a) const;

  private:
    u64 q_;
    u64 ratio0_;  ///< low word of floor(2^128 / q)
    u64 ratio1_;  ///< high word of floor(2^128 / q)
};

/**
 * Shoup multiplication: multiply by a fixed operand @p w with a precomputed
 * quotient — one mulhi, one mullo, one conditional correction. Used in NTT
 * butterflies where the twiddle factor is a constant.
 */
class ShoupMul
{
  public:
    ShoupMul() : w_(0), wShoup_(0) {}

    ShoupMul(u64 w, const Modulus &mod)
        : w_(w),
          wShoup_(static_cast<u64>((static_cast<u128>(w) << 64) /
                                   mod.value()))
    {
        // The precomputed quotient floor(w * 2^64 / q) only fits — and
        // mulMod's single correction step only suffices — when w < q.
        CROPHE_ASSERT(w < mod.value(), "Shoup operand ", w,
                      " must be reduced mod ", mod.value());
    }

    /** (a * w) mod q; requires a < q; result in [0, q). */
    u64
    mul(u64 a, u64 q) const
    {
        u64 hi = static_cast<u64>((static_cast<u128>(a) * wShoup_) >> 64);
        u64 r = a * w_ - hi * q;
        return r >= q ? r - q : r;
    }

  private:
    u64 w_;
    u64 wShoup_;
};

/** floor(w·2^64 / q), the precomputed Shoup quotient; requires w < q. */
inline u64
shoupQuotient(u64 w, u64 q)
{
    return static_cast<u64>((static_cast<u128>(w) << 64) / q);
}

}  // namespace crophe::fhe

#endif  // CROPHE_FHE_MODARITH_H_
