#ifndef CROPHE_FHE_KERNELS_KERNELS_H_
#define CROPHE_FHE_KERNELS_KERNELS_H_

/**
 * @file
 * Vectorized lazy-reduction kernel layer (DESIGN.md §10).
 *
 * Every hot loop of the functional CKKS library — NTT butterflies,
 * element-wise limb ops, the BConv inner product, automorphism gathers —
 * funnels through this table of function pointers. Three backends
 * implement the table:
 *
 *   - scalar:  portable C++, Harvey lazy reduction, always available;
 *   - avx2:    4-wide 256-bit kernels (64x64 multiplies assembled from
 *              vpmuludq partial products);
 *   - avx512:  8-wide 512-bit kernels (AVX-512F + DQ).
 *
 * The active backend is chosen once per process: an explicit
 * setBackend() call, or parseBackend() + requestBackend() (the --kernel
 * flag), wins, then the CROPHE_KERNEL environment variable, then the
 * widest ISA the host supports. Every backend is bit-identical: all
 * kernels produce canonical (fully reduced) outputs, lazy reduction is an
 * internal invariant only, and the BConv float-quotient estimate performs
 * its additions in a fixed order with contraction pinned off — so
 * switching backends, or machines, never changes a single limb.
 *
 * Values are u64 residues below 2^60 moduli, which leaves the headroom
 * the lazy NTT needs ([0,4q) fits in 62 bits) and lets comparisons use
 * signed vector instructions.
 */

#include <string>

#include "common/types.h"

namespace crophe::fhe::kernels {

/** Kernel implementation families, ordered by preference. */
enum class Backend : u8
{
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
};

/**
 * One (N, q) NTT's precomputed state, viewed by the kernels.
 *
 * w/wShoup hold the per-butterfly twiddles in the merged radix-2 heap
 * order of fhe/ntt.h (entry m+i serves block i of the stage with m
 * blocks); wShoup[k] = floor(w[k]·2^64 / q).
 */
struct NttView
{
    const u64 *w;
    const u64 *wShoup;
    u64 n;
    u64 q;
    u64 nInv;       ///< n^{-1} mod q (inverse transform only)
    u64 nInvShoup;  ///< floor(nInv·2^64 / q)
};

/** A modulus plus its two-word Barrett constant floor(2^128 / q). */
struct BarrettView
{
    u64 q;
    u64 lo;  ///< low word of floor(2^128 / q)
    u64 hi;  ///< high word of floor(2^128 / q)
};

/**
 * The dispatch table. All kernels are pure functions over caller-owned
 * arrays; "mod q" results are always canonical representatives in
 * [0, q).
 */
struct KernelTable
{
    const char *name;

    /** In-place forward negacyclic NTT; input/output canonical. */
    void (*fwdNtt)(u64 *a, const NttView &t);
    /** In-place inverse negacyclic NTT incl. n^{-1} scaling. */
    void (*invNtt)(u64 *a, const NttView &t);

    /** dst[i] = (dst[i] + src[i]) mod q; inputs canonical. */
    void (*addMod)(u64 *dst, const u64 *src, u64 n, u64 q);
    /** dst[i] = (dst[i] - src[i]) mod q; inputs canonical. */
    void (*subMod)(u64 *dst, const u64 *src, u64 n, u64 q);
    /** dst[i] = (-dst[i]) mod q. */
    void (*negMod)(u64 *dst, u64 n, u64 q);
    /**
     * dst[i] = dst[i]·src[i] mod q; inputs canonical. Two-word Barrett,
     * except that avx512 takes the quotient in double precision when
     * q < 2^50 (DESIGN.md §10); every path returns the same residue.
     */
    void (*mulModBarrett)(u64 *dst, const u64 *src, u64 n,
                          const BarrettView &q);
    /** dst[i] = dst[i]·w mod q via Shoup; requires w < q, dst canonical. */
    void (*mulScalarShoup)(u64 *dst, u64 n, u64 q, u64 w, u64 wShoup);
    /** dst[k] = src[idx[k]] (automorphism gather; idx values < n_src). */
    void (*gather)(u64 *dst, const u64 *src, const u64 *idx, u64 n);

    /**
     * BConv stage 1 over a coefficient tile: for each source limb i and
     * tile coefficient c,
     *   xhat[i·xhatStride + c] = in[i·inStride + c]·mhatInv[i] mod qFrom[i]
     * and vest[c] += double(xhat)·invM[i], accumulated in ascending-i
     * order (the float quotient's summation order is part of the
     * bit-identity contract).
     */
    void (*bconvXhat)(u64 *xhat, u64 xhatStride, double *vest, const u64 *in,
                      u64 inStride, u64 m, u64 cnt, const u64 *mhatInv,
                      const u64 *mhatInvShoup, const u64 *qFrom,
                      const double *invM);

    /**
     * BConv stage 2 for one target modulus: for each tile coefficient c,
     *   s = (Σ_i xhat[i·xhatStride + c]·w[i]) mod q   (exact 128-bit sum)
     *   out[c] = s - floor(vest[c])·mModT mod q.
     * Requires m < 256 so the 128-bit accumulator cannot overflow.
     */
    void (*bconvOut)(u64 *out, const u64 *xhat, u64 xhatStride, u64 m,
                     u64 cnt, const u64 *w, const double *vest, u64 mModT,
                     const BarrettView &q);

    // -- Batched entries (capability/fallback contract) -----------------
    //
    // Batched kernels transform `count` polynomials that all share ONE
    // (n, q) NttView, walking the butterfly stages outermost and the
    // polynomials innermost so each stage's twiddle block is loaded once
    // per batch instead of once per polynomial (the Hermes-style hybrid
    // dataflow, DESIGN.md §13). They are *nullable*: a backend without a
    // native batched path leaves the slot null, and callers must go
    // through fwdNttBatched()/invNttBatched() below, which fall back to
    // looping the single-polynomial entry. Batched entries live at the
    // end of the struct so older aggregate initializers value-initialize
    // them to null. Results are bit-identical to the per-polynomial
    // kernels by construction (same butterfly sequence per polynomial).

    /** In-place forward NTT of polys[0..count) (may be null). */
    void (*fwdNttBatch)(u64 *const *polys, u64 count, const NttView &t);
    /** In-place inverse NTT of polys[0..count) (may be null). */
    void (*invNttBatch)(u64 *const *polys, u64 count, const NttView &t);
};

/**
 * Transform a batch through @p kt's batched entry when present, else
 * loop the single-polynomial kernel. @p tile bounds how many
 * polynomials one stage-outer pass interleaves (the autotuner's batch
 * width); 0 means "whole batch". All tile choices are bit-identical.
 */
void fwdNttBatched(const KernelTable &kt, u64 *const *polys, u64 count,
                   const NttView &t, u64 tile = 0);
void invNttBatched(const KernelTable &kt, u64 *const *polys, u64 count,
                   const NttView &t, u64 tile = 0);

/** The selected backend's table (resolves on first use). */
const KernelTable &table();

/** The selected backend (resolves on first use). */
Backend activeBackend();

/** Whether @p b can run on this host with this binary. */
bool available(Backend b);

/** Force @p b; panics if unavailable. Intended for tests and flags. */
void setBackend(Backend b);

/**
 * Parse a backend name ("scalar" | "avx2" | "avx512" | "auto", where
 * "auto" resolves to the widest ISA this host supports). Throws a
 * typed RecoverableError on anything else — the one place unknown
 * `--kernel` / CROPHE_KERNEL spellings are rejected, so downstream
 * code only ever sees the enum.
 */
Backend parseBackend(const std::string &name);

/**
 * Install @p b as the active backend, falling back to the widest
 * available one with a one-time warning when @p b cannot run here (so
 * an explicit avx512 request degrades gracefully on older hosts).
 */
void requestBackend(Backend b);

const char *backendName(Backend b);

/**
 * The seed's eager scalar NTT (per-butterfly canonical reduction),
 * retained verbatim as the differential-test reference and the
 * before/after baseline of bench_kernels.
 */
void referenceFwdNtt(u64 *a, const NttView &t);
void referenceInvNtt(u64 *a, const NttView &t);

/** Per-backend tables (unconditionally: scalar; compile-gated: SIMD). */
const KernelTable &scalarTable();
#ifdef CROPHE_HAVE_AVX2
const KernelTable &avx2Table();
#endif
#ifdef CROPHE_HAVE_AVX512
const KernelTable &avx512Table();
#endif

}  // namespace crophe::fhe::kernels

#endif  // CROPHE_FHE_KERNELS_KERNELS_H_
