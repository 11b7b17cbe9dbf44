#ifndef CROPHE_FHE_BIGUINT_H_
#define CROPHE_FHE_BIGUINT_H_

/**
 * @file
 * Minimal arbitrary-precision unsigned integer.
 *
 * Used for CRT reconstruction (composing RNS limbs back to Z_Q), for
 * validating base conversion in tests, and for decoding wide coefficients.
 * Only the handful of operations CROPHE needs are implemented.
 */

#include <string>
#include <vector>

#include "common/types.h"

namespace crophe::fhe {

/** Little-endian base-2^64 unsigned integer. */
class BigUInt
{
  public:
    BigUInt() = default;
    explicit BigUInt(u64 v);

    static BigUInt fromWords(std::vector<u64> words);

    bool isZero() const;
    std::size_t wordCount() const { return words_.size(); }

    /** -1 / 0 / +1 for this <,==,> other. */
    int compare(const BigUInt &other) const;

    BigUInt &addInplace(const BigUInt &other);
    /** Requires *this >= other. */
    BigUInt &subInplace(const BigUInt &other);
    BigUInt &mulSmallInplace(u64 m);

    /** this += a * b. */
    BigUInt &addMulSmall(const BigUInt &a, u64 b);

    /** this mod m, m != 0. */
    u64 modSmall(u64 m) const;

    /** floor(this / 2). */
    BigUInt half() const;

    /** Approximate conversion to double (for decode sanity checks). */
    double toDouble() const;

    /** Hex string, most significant first (no leading zeros). */
    std::string toHex() const;

    bool operator==(const BigUInt &o) const { return compare(o) == 0; }
    bool operator<(const BigUInt &o) const { return compare(o) < 0; }
    bool operator<=(const BigUInt &o) const { return compare(o) <= 0; }

  private:
    void trim();

    std::vector<u64> words_;  ///< little-endian; normalized (no top zeros)
};

/** Product of a list of word-sized moduli. */
BigUInt productOf(const std::vector<u64> &factors);

}  // namespace crophe::fhe

#endif  // CROPHE_FHE_BIGUINT_H_
