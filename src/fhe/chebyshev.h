#ifndef CROPHE_FHE_CHEBYSHEV_H_
#define CROPHE_FHE_CHEBYSHEV_H_

/**
 * @file
 * Homomorphic polynomial evaluation — the computational substrate of
 * bootstrapping's EvalMod step, which approximates a modular reduction by
 * a high-degree polynomial (a scaled sine) evaluated with HMult/CMult
 * chains (Section II-A).
 */

#include <vector>

#include "fhe/ckks.h"

namespace crophe::fhe {

/**
 * Evaluate p(x) = c_0 + c_1 x + … + c_d x^d homomorphically via Horner's
 * rule. Consumes d levels (one HMult+rescale per degree).
 */
Ciphertext evalPolyHorner(const Evaluator &eval, const Ciphertext &x,
                          const std::vector<double> &coeffs,
                          const KswKey &rlk);

/** Plain reference evaluation of a monomial-basis polynomial. */
double evalPolyRef(const std::vector<double> &coeffs, double x);

}  // namespace crophe::fhe

#endif  // CROPHE_FHE_CHEBYSHEV_H_
