#ifndef CROPHE_FHE_CFFT_H_
#define CROPHE_FHE_CFFT_H_

/**
 * @file
 * Complex "special" FFT over the CKKS rotation group.
 *
 * CKKS canonical embedding evaluates a real polynomial at the primitive
 * 2N-th roots ζ^{5^j} (j = 0…N/2-1); this module provides the fast
 * transform between slot values and the half-size complex coefficient
 * vector, in the rotation-group ordering that makes HRot a cyclic shift.
 */

#include <complex>
#include <vector>

#include "common/types.h"

namespace crophe::fhe {

using Cplx = std::complex<double>;

/**
 * Special FFT support tables for a ring of degree @p n (so M = 2n roots,
 * and n/2 slots).
 */
class SpecialFft
{
  public:
    explicit SpecialFft(u64 n);

    u64 slots() const { return n_ / 2; }

    /**
     * Slots -> coefficient-pair vector (inverse embedding), in place;
     * vals.size() == slots(). After this, the real parts are coefficients
     * 0…n/2-1 and the imaginary parts are coefficients n/2…n-1.
     */
    void embedInverse(std::vector<Cplx> &vals) const;

    /** Coefficient-pair vector -> slots (forward embedding), in place. */
    void embed(std::vector<Cplx> &vals) const;

  private:
    u64 n_;       ///< ring degree N
    u64 m_;       ///< 2N
    std::vector<Cplx> ksi_;   ///< ksi_[j] = exp(2πi j / M), j = 0…M
    std::vector<u64> rotGroup_;  ///< 5^j mod M, j = 0…N/2-1
};

/**
 * Reference O(n²) embedding used by tests: slot_j = m(ζ^{5^j}) evaluated
 * directly from coefficients.
 */
std::vector<Cplx> embedDirect(const std::vector<double> &coeffs);

/** Reference inverse: coefficients from slots via the conjugate formula. */
std::vector<double> embedInverseDirect(const std::vector<Cplx> &slots, u64 n);

}  // namespace crophe::fhe

#endif  // CROPHE_FHE_CFFT_H_
