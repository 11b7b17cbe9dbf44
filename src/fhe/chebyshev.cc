#include "fhe/chebyshev.h"

#include "common/logging.h"

namespace crophe::fhe {

Ciphertext
evalPolyHorner(const Evaluator &eval, const Ciphertext &x,
               const std::vector<double> &coeffs, const KswKey &rlk)
{
    CROPHE_ASSERT(coeffs.size() >= 2, "need degree >= 1");
    const u32 degree = static_cast<u32>(coeffs.size()) - 1;
    CROPHE_ASSERT(x.level >= degree,
                  "insufficient levels: need ", degree, ", have ", x.level);

    // acc = c_d; then repeatedly acc = acc·x + c_i.
    // We keep acc as a ciphertext at progressively lower levels.
    Ciphertext acc = eval.mulConst(x, coeffs[degree]);
    acc = eval.rescale(acc);
    acc = eval.addConst(acc, coeffs[degree - 1]);

    for (u32 i = degree - 1; i-- > 0;) {
        Ciphertext x_here = eval.levelDown(x, acc.level);
        acc = eval.mul(acc, x_here, rlk);
        acc = eval.rescale(acc);
        acc = eval.addConst(acc, coeffs[i]);
    }
    return acc;
}

double
evalPolyRef(const std::vector<double> &coeffs, double x)
{
    double acc = 0.0;
    for (std::size_t i = coeffs.size(); i-- > 0;)
        acc = acc * x + coeffs[i];
    return acc;
}

}  // namespace crophe::fhe
