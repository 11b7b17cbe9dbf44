#ifndef CROPHE_FHE_NTT_H_
#define CROPHE_FHE_NTT_H_

/**
 * @file
 * Negacyclic number theoretic transform over Z_q[X]/(X^N + 1).
 *
 * Two implementations are provided:
 *  - NttTables: the merged radix-2 in-place transform (Harvey/SEAL style,
 *    Cooley-Tukey forward into bit-reversed order, Gentleman-Sande inverse),
 *    the fast path used by the CKKS library; and
 *  - naive reference transforms used by the test suite.
 *
 * The butterfly loops live in the kernel layer (fhe/kernels/kernels.h):
 * NttTables stores its twiddles as structure-of-arrays (value / Shoup
 * quotient) in 64-byte-aligned storage and hands the selected backend a
 * view, so the same tables drive the scalar, AVX2 and AVX-512 transforms.
 *
 * The four-step (decomposed) NTT that CROPHE's dataflow optimization builds
 * on lives in fhe/ntt_fourstep.h.
 */

#include <vector>

#include "common/aligned.h"
#include "common/types.h"
#include "fhe/kernels/kernels.h"
#include "fhe/modarith.h"

namespace crophe::fhe {

/**
 * Process-wide count of limb transforms executed through NttTables
 * (forward/inverse, single or batched; each polynomial in a batch counts
 * once). Relaxed atomic — a profiling counter for the benches' NTT-count
 * accounting (DESIGN.md §15), not a synchronization point. @{
 */
u64 nttLimbTransforms();
/** @} */

/**
 * Precomputed twiddle tables for one (N, q) pair and the in-place
 * negacyclic transforms using them.
 *
 * Convention: forward() maps the coefficient vector a to the evaluations
 * â[k] = a(ψ^(2·br(k)+1)) where br is the log2(N)-bit reversal, i.e. the
 * output is in bit-reversed order. inverse() consumes that order and
 * returns natural-order coefficients. Element-wise products of two
 * forward() outputs therefore correspond to negacyclic convolution.
 */
class NttTables
{
  public:
    /** @param n power-of-two transform size; @param mod prime ≡ 1 mod 2n. */
    NttTables(u64 n, const Modulus &mod);

    u64 psi() const { return psi_; }

    /** In-place forward negacyclic NTT; a.size() == n. */
    void forward(u64 *a) const;

    /** In-place inverse negacyclic NTT; a.size() == n. */
    void inverse(u64 *a) const;

    void forward(std::vector<u64> &a) const { forward(a.data()); }
    void inverse(std::vector<u64> &a) const { inverse(a.data()); }

    /**
     * In-place transforms of @p count polynomials sharing this table's
     * (n, q), routed through the backend's batched kernel (stage-outer
     * loops, autotuned tile width) when present. Bit-identical to
     * calling forward()/inverse() per polynomial.
     */
    void forwardBatched(u64 *const *polys, u64 count) const;
    void inverseBatched(u64 *const *polys, u64 count) const;

    /** Kernel views over the precomputed tables (bench/tests). */
    kernels::NttView forwardView() const;
    kernels::NttView inverseView() const;

  private:
    u64 n_;
    u32 logn_;
    Modulus mod_;
    u64 psi_;     ///< primitive 2n-th root of unity
    u64 psiInv_;  ///< psi^{-1}
    u64 nInv_;    ///< n^{-1} mod q
    u64 nInvShoup_;
    AlignedVec<u64> fwdW_;      ///< ψ^br(i) at table index i
    AlignedVec<u64> fwdShoup_;  ///< floor(fwdW·2^64/q)
    AlignedVec<u64> invW_;      ///< ψ^{-br(i)} at table index i
    AlignedVec<u64> invShoup_;
};

/**
 * Reference negacyclic forward NTT in natural order:
 * out[k] = Σ_i a[i] ψ^{i(2k+1)}. O(N²); for tests only.
 */
std::vector<u64> nttNaiveNegacyclic(const std::vector<u64> &a,
                                    const Modulus &mod, u64 psi);

/** Schoolbook negacyclic polynomial product mod (X^N + 1, q); tests only. */
std::vector<u64> polyMulNaive(const std::vector<u64> &a,
                              const std::vector<u64> &b, const Modulus &mod);

/**
 * A cyclic NTT plan: the per-stage twiddle powers ω^(j·n/len) and their
 * Shoup quotients, precomputed once, plus the cached inverse tables and
 * n^{-1} — replacing the seed's chained Barrett mod.mul(w, w_len) per
 * butterfly and per-call mod.inv(omega) recomputation. The transform is
 * decimation-in-time with an explicit bit-reversal, so input and output
 * are both in natural order.
 */
class CyclicNtt
{
  public:
    /** @param n power of two; @param omega a primitive n-th root mod q. */
    CyclicNtt(u64 n, const Modulus &mod, u64 omega);

    /** In-place forward cyclic NTT, natural order in and out. */
    void forward(u64 *a) const;

    /** In-place inverse (includes the 1/n scaling). */
    void inverse(u64 *a) const;

  private:
    /** One direction's twiddles: stage with half-length h occupies
     *  entries [h-1, 2h-1), holding ω_len^j for j in [0, h). */
    struct StageTables
    {
        AlignedVec<u64> w;
        AlignedVec<u64> wShoup;
    };

    void buildStages(StageTables *t, u64 root) const;
    void core(u64 *a, const StageTables &t) const;

    u64 n_;
    u32 logn_;
    Modulus mod_;
    StageTables fwd_;
    StageTables inv_;
    u64 nInv_;
    u64 nInvShoup_;
};

/**
 * Generic in-place cyclic NTT (root ω of order n), natural input order,
 * natural output order. Convenience wrapper that builds a CyclicNtt plan
 * per call; repeated transforms should hold a plan instead.
 */
void cyclicNtt(u64 *a, u64 n, const Modulus &mod, u64 omega);

/** Inverse of cyclicNtt (includes the 1/n scaling). */
void cyclicInverseNtt(u64 *a, u64 n, const Modulus &mod, u64 omega);

}  // namespace crophe::fhe

#endif  // CROPHE_FHE_NTT_H_
