#ifndef CROPHE_FHE_NTT_FOURSTEP_H_
#define CROPHE_FHE_NTT_FOURSTEP_H_

/**
 * @file
 * Four-step (decomposed) negacyclic NTT, N = N1 × N2.
 *
 * This is the computational substrate of CROPHE's NTT-decomposition dataflow
 * optimization (Section V-B): the length-N transform becomes
 *   N1 independent length-N2 column NTTs  →  element-wise twiddle multiply
 *   →  N2 independent length-N1 row NTTs,
 * which turns the loop nest  log N ▷ N  into
 *   N1 ▷ log N2 ▷ N2  →  N1 ▷ N2  →  N2 ▷ log N1 ▷ N1,
 * so the column step pipelines with predecessors along N1 and the row step
 * pipelines with successors along N2, halving orientation switches.
 *
 * Functionally, the negacyclic transform is realized by twisting the input
 * with ψ^i and running a cyclic four-step transform with ω = ψ².
 *
 * All data-independent work — the column/row CyclicNtt plans for both
 * directions, the N1×N2 step-2 twiddle matrix, the ψ^i twist factors and
 * 1/N — is precomputed at construction with Shoup quotients, so a
 * transform performs no modular inversions, pow() calls, or chained
 * twiddle generation.
 */

#include <vector>

#include "common/aligned.h"
#include "common/types.h"
#include "fhe/modarith.h"
#include "fhe/ntt.h"

namespace crophe::fhe {

/** Four-step negacyclic NTT for one (N1, N2, q) configuration. */
class FourStepNtt
{
  public:
    /**
     * @param n1,n2 power-of-two factors with n = n1*n2;
     * @param mod prime ≡ 1 mod 2·n1·n2.
     */
    FourStepNtt(u64 n1, u64 n2, const Modulus &mod);

    /**
     * Forward transform, natural-order output:
     * out[k] = Σ_i a[i] ψ^{i(2k+1)}. Matches nttNaiveNegacyclic().
     */
    std::vector<u64> forward(const std::vector<u64> &a) const;

    /** Inverse of forward(). */
    std::vector<u64> inverse(const std::vector<u64> &a) const;

    /**
     * Number of data orientation switches incurred by the sequence
     * iNTT → elementwise → NTT when this decomposition is used (2) versus
     * the undecomposed transform (4); exposed for scheduler tests.
     */
    static u32 orientationSwitchesDecomposed() { return 2; }
    static u32 orientationSwitchesMonolithic() { return 4; }

  private:
    /** Per-element constants with their Shoup quotients, index-aligned. */
    struct ShoupTable
    {
        AlignedVec<u64> w;
        AlignedVec<u64> wShoup;
    };

    void cyclicFourStep(std::vector<u64> &a, bool inverse) const;
    ShoupTable buildTwiddleMatrix(u64 omega) const;

    u64 n1_;
    u64 n2_;
    Modulus mod_;
    u64 psi_;
    u64 omega_;           ///< ψ², an N-th root of unity
    CyclicNtt colFwd_;    ///< length-N2 plan, root ω^N1
    CyclicNtt rowFwd_;    ///< length-N1 plan, root ω^N2
    CyclicNtt colInv_;    ///< length-N2 plan, root ω^{-N1}
    CyclicNtt rowInv_;    ///< length-N1 plan, root ω^{-N2}
    ShoupTable twFwd_;    ///< ω^{i1·k2} at index i1·N2 + k2
    ShoupTable twInv_;    ///< ω^{-i1·k2}
    ShoupTable twist_;    ///< ψ^i
    ShoupTable twistInv_; ///< ψ^{-i}
    u64 nInv_;            ///< N^{-1} mod q
    u64 nInvShoup_;
};

}  // namespace crophe::fhe

#endif  // CROPHE_FHE_NTT_FOURSTEP_H_
