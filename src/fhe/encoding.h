#ifndef CROPHE_FHE_ENCODING_H_
#define CROPHE_FHE_ENCODING_H_

/**
 * @file
 * CKKS plaintexts and the slot <-> polynomial encoder.
 */

#include <vector>

#include "common/types.h"
#include "fhe/cfft.h"
#include "fhe/rns.h"

namespace crophe::fhe {

/** An encoded CKKS plaintext: an RNS polynomial plus scale/level. */
struct Plaintext
{
    RnsPoly poly;   ///< Eval representation over qBasis(level)
    double scale = 0.0;
    u32 level = 0;
};

/**
 * Encoder between complex slot vectors (length N/2) and plaintexts.
 *
 * The fast special-FFT path is used; embedDirect/embedInverseDirect in
 * fhe/cfft.h are the O(N²) references the tests validate against.
 */
class Encoder
{
  public:
    explicit Encoder(const FheContext &ctx);

    u64 slots() const { return ctx_->n() / 2; }

    /**
     * Encode @p values (padded/truncated to N/2 slots) at @p level with
     * scale @p scale (0 = context default).
     */
    Plaintext encode(const std::vector<Cplx> &values, u32 level,
                     double scale = 0.0) const;

    /** Real-vector convenience overload. */
    Plaintext encodeReal(const std::vector<double> &values, u32 level,
                         double scale = 0.0) const;

    /** Decode back to N/2 complex slots. */
    std::vector<Cplx> decode(const Plaintext &pt) const;

  private:
    const FheContext *ctx_;
    SpecialFft fft_;
};

}  // namespace crophe::fhe

#endif  // CROPHE_FHE_ENCODING_H_
