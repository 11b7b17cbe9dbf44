#ifndef CROPHE_FHE_BCONV_H_
#define CROPHE_FHE_BCONV_H_

/**
 * @file
 * RNS base conversion (BConv), and the ModUp/ModDown primitives built on it.
 *
 * BConv is the matrix-multiplication operator of key-switching (Figure 1):
 * converting an m-limb representation to a t-limb one multiplies the m × N
 * limb matrix by a constant t × m matrix of CRT factors. We implement the
 * HPS variant with floating-point quotient estimation so that values whose
 * representative lies in [0, M) convert exactly.
 *
 * convert() is limb-blocked and coefficient-tiled: a tile of coefficients
 * has its xhat row block and float quotients computed once (kernel stage
 * 1), then every target modulus consumes the resident tile (stage 2), so
 * the traffic per source limb element is one read regardless of t. The
 * float quotient is accumulated in ascending source-limb order with
 * contraction pinned off — the summation order is part of the
 * bit-identity contract across kernel backends.
 *
 * ModUp/ModDown fetch their converters from the FheContext memo, so the
 * O(m²) big-integer constant setup happens once per basis pair per
 * context rather than once per call.
 */

#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/types.h"
#include "fhe/kernels/kernels.h"
#include "fhe/modarith.h"
#include "fhe/rns.h"

namespace crophe::fhe {

/** Converts coefficient-domain limbs from one RNS basis to another. */
class BaseConverter
{
  public:
    /**
     * @param ctx context owning all moduli;
     * @param from global modulus indices of the source basis;
     * @param to global modulus indices of the target basis (disjoint or not).
     */
    BaseConverter(const FheContext &ctx, std::vector<u32> from,
                  std::vector<u32> to);

    /**
     * Convert a Coeff-representation polynomial over the source basis to
     * one over the target basis. The value of each coefficient, taken as
     * its representative in [0, M), is preserved mod every target modulus.
     */
    RnsPoly convert(const RnsPoly &in) const;

    /**
     * convert() into caller-owned rows: @p dst_rows[j] receives target
     * limb j (n elements each). This is the fused-pipeline entry point —
     * writing straight into the consumer's limb slab skips the
     * whole-polynomial temporary between BConv and the NTT that follows
     * it. Byte-identical to convert().
     */
    void convertInto(const RnsPoly &in, u64 *const *dst_rows) const;

  private:
    const FheContext *ctx_;
    std::vector<u32> from_;
    std::vector<u32> to_;
    /** (M/m_i)^{-1} mod m_i, with Shoup quotients. */
    AlignedVec<u64> mhatInv_;
    AlignedVec<u64> mhatInvShoup_;
    /** Source modulus values m_i. */
    AlignedVec<u64> fromQ_;
    /** [M/m_i mod t_j] at index j·m + i. */
    AlignedVec<u64> mhatModT_;
    /** M mod t_j. */
    std::vector<u64> mModT_;
    /** 1 / m_i as double, for the quotient estimate. */
    AlignedVec<double> invM_;
    /** Barrett constants of the target moduli. */
    std::vector<kernels::BarrettView> toView_;
};

/**
 * ModUp for key-switching digit @p j: take the digit's limbs of @p d
 * (Coeff rep over the q basis at level @p level) and extend them to the
 * full q+p basis at that level.
 */
RnsPoly modUpDigit(const FheContext &ctx, const RnsPoly &d_coeff, u32 digit,
                   u32 level);

/**
 * Fused iNTT→BConv→NTT ModUp (DESIGN.md §13): produce digit @p j of
 * key-switching directly in Eval representation over the q+p basis.
 *
 * The unfused flow (modUpDigit + toEval) inverse-transforms every limb of
 * d and then forward-transforms all of the extended basis — including the
 * digit's own limbs, which NTT∘iNTT maps back to exactly where they
 * started. Here the digit's own limbs are instead copied straight from
 * the Eval-domain input @p d_eval, BConv writes the missing limbs
 * directly into the output slab (convertInto), and only those converted
 * limbs are forward-transformed. Both transforms are exact mutually
 * inverse bijections with canonical outputs, so the result is
 * bit-identical to the unfused flow while skipping the round trips.
 *
 * @param d_eval  the key-switch operand over qBasis(level), Eval rep;
 * @param d_coeff the same polynomial in Coeff rep (shared across digits).
 */
RnsPoly fusedModUpEval(const FheContext &ctx, const RnsPoly &d_eval,
                       const RnsPoly &d_coeff, u32 digit, u32 level);

/**
 * ModDown: divide a (q…q_level, p…) polynomial by P and return the result
 * over the q basis only. Input and output in Coeff representation.
 */
RnsPoly modDown(const FheContext &ctx, const RnsPoly &in, u32 level);

/**
 * Fused Eval-domain ModDown of a key-switch accumulator pair (b, a), both
 * over qpBasis(level) in Eval rep; returns the pair over qBasis(level),
 * still in Eval rep.
 *
 * Instead of inverse-transforming all q+p limbs of both polynomials and
 * forward-transforming the q limbs again afterwards (the unfused
 * toCoeff → modDown → toEval flow), only the α special-modulus limbs are
 * inverse-transformed — pair-batched per modulus, since b and a share
 * every modulus — BConv carries them to the q basis, and the converted
 * rows are forward-transformed (again pair-batched). The subtraction and
 * the P⁻¹ scaling are linear and pointwise, so applying them in the Eval
 * domain commutes with the NTT bit-exactly.
 */
std::pair<RnsPoly, RnsPoly> modDownEvalPair(const FheContext &ctx,
                                            const RnsPoly &b,
                                            const RnsPoly &a, u32 level);

/**
 * Rescale: divide by the last ciphertext modulus q_level and drop it.
 * Input/output in Coeff representation over q bases.
 */
RnsPoly rescalePoly(const FheContext &ctx, const RnsPoly &in, u32 level);

}  // namespace crophe::fhe

#endif  // CROPHE_FHE_BCONV_H_
