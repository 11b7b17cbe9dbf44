/**
 * @file
 * AVX-512 backend: 8-wide 512-bit kernels (requires F + DQ).
 *
 * Structurally a double-width mirror of the AVX2 backend, but simpler
 * where AVX-512 has first-class support: vpmullq supplies the low
 * 64x64 product directly, mask registers replace the blend/and games of
 * the 256-bit compares, and vcvtuqq2pd/vcvttpd2uqq give exact
 * u64↔double conversion (identical to a scalar cast, which is the
 * bit-identity requirement of the BConv float-quotient path). The high
 * 64x64 product still has to be assembled from vpmuludq partials.
 */

#include "fhe/kernels/kernels.h"

#ifdef CROPHE_HAVE_AVX512

// GCC 12's AVX-512 headers seed the passthrough operand of unmasked
// intrinsics with _mm512_undefined_*(), which -Wmaybe-uninitialized
// reports inside avx512fintrin.h at every inlined use. The diagnostics
// are located in the header, so silencing them around its include
// leaves the warning on for this file's own code.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include "fhe/kernels/ntt_simd256_inl.h"

namespace crophe::fhe::kernels {

namespace {

inline u64
mulHi64(u64 a, u64 b)
{
    return static_cast<u64>((static_cast<u128>(a) * b) >> 64);
}

inline u64
shoupMulLazyS(u64 a, u64 w, u64 wShoup, u64 q)
{
    return a * w - mulHi64(a, wShoup) * q;
}

/** High 64 bits of the 8 lane-wise 64x64 products. */
inline __m512i
mulHi64v(__m512i x, __m512i y)
{
    const __m512i mask32 = _mm512_set1_epi64(0xffffffff);
    __m512i x1 = _mm512_srli_epi64(x, 32);
    __m512i y1 = _mm512_srli_epi64(y, 32);
    __m512i lolo = _mm512_mul_epu32(x, y);
    __m512i hilo = _mm512_mul_epu32(x1, y);
    __m512i lohi = _mm512_mul_epu32(x, y1);
    __m512i hihi = _mm512_mul_epu32(x1, y1);
    __m512i mid = _mm512_add_epi64(hilo, _mm512_srli_epi64(lolo, 32));
    __m512i mid2 = _mm512_add_epi64(lohi, _mm512_and_si512(mid, mask32));
    return _mm512_add_epi64(
        hihi, _mm512_add_epi64(_mm512_srli_epi64(mid, 32),
                               _mm512_srli_epi64(mid2, 32)));
}

/** x - (x >= bound ? bound : 0), full unsigned range via mask compare. */
inline __m512i
condSub(__m512i x, __m512i bound)
{
    __mmask8 ge = _mm512_cmpge_epu64_mask(x, bound);
    return _mm512_mask_sub_epi64(x, ge, x, bound);
}

/** Shoup lazy product in [0,2q) per lane; any a, w < q. */
inline __m512i
shoupMulLazyV(__m512i a, __m512i w, __m512i ws, __m512i q)
{
    __m512i hi = mulHi64v(a, ws);
    return _mm512_sub_epi64(_mm512_mullo_epi64(a, w),
                            _mm512_mullo_epi64(hi, q));
}

struct BarrettV
{
    __m512i q, lo, hi;
};

inline BarrettV
broadcastBarrett(const BarrettView &b)
{
    BarrettV v;
    v.q = _mm512_set1_epi64(static_cast<long long>(b.q));
    v.lo = _mm512_set1_epi64(static_cast<long long>(b.lo));
    v.hi = _mm512_set1_epi64(static_cast<long long>(b.hi));
    return v;
}

/** Lane-wise Barrett reduction of (xhi:xlo) to canonical [0,q). */
inline __m512i
barrettReduceV(__m512i xhi, __m512i xlo, const BarrettV &b)
{
    const __m512i one = _mm512_set1_epi64(1);
    __m512i carry = mulHi64v(xlo, b.lo);
    __m512i m1hi = mulHi64v(xlo, b.hi);
    __m512i m1lo = _mm512_mullo_epi64(xlo, b.hi);
    __m512i m2hi = mulHi64v(xhi, b.lo);
    __m512i m2lo = _mm512_mullo_epi64(xhi, b.lo);
    __m512i s1 = _mm512_add_epi64(m1lo, m2lo);
    __mmask8 c1 = _mm512_cmplt_epu64_mask(s1, m1lo);
    __m512i s2 = _mm512_add_epi64(s1, carry);
    __mmask8 c2 = _mm512_cmplt_epu64_mask(s2, s1);
    __m512i midhi = _mm512_add_epi64(m1hi, m2hi);
    midhi = _mm512_mask_add_epi64(midhi, c1, midhi, one);
    midhi = _mm512_mask_add_epi64(midhi, c2, midhi, one);
    __m512i quot = _mm512_add_epi64(midhi, _mm512_mullo_epi64(xhi, b.hi));
    __m512i r = _mm512_sub_epi64(xlo, _mm512_mullo_epi64(quot, b.q));
    r = condSub(r, b.q);
    r = condSub(r, b.q);
    return r;
}

inline __m512i
barrettMulV(__m512i a, __m512i c, const BarrettV &b)
{
    return barrettReduceV(mulHi64v(a, c), _mm512_mullo_epi64(a, c), b);
}

/** One 512-bit forward stage (m blocks, gap >= 8), values in [0,4q). */
inline void
fwdStageWide512(u64 *a, const NttView &t, u64 m, u64 gap, __m512i vq,
                __m512i v2q)
{
    for (u64 i = 0; i < m; ++i) {
        u64 *x = a + 2 * i * gap;
        u64 *y = x + gap;
        const __m512i w =
            _mm512_set1_epi64(static_cast<long long>(t.w[m + i]));
        const __m512i ws = _mm512_set1_epi64(
            static_cast<long long>(t.wShoup[m + i]));
        u64 j = 0;
        for (; j + 16 <= gap; j += 16) {
            __m512i u0 = _mm512_loadu_si512(x + j);
            __m512i u1 = _mm512_loadu_si512(x + j + 8);
            __m512i y0 = _mm512_loadu_si512(y + j);
            __m512i y1 = _mm512_loadu_si512(y + j + 8);
            u0 = condSub(u0, v2q);
            u1 = condSub(u1, v2q);
            __m512i v0 = shoupMulLazyV(y0, w, ws, vq);
            __m512i v1 = shoupMulLazyV(y1, w, ws, vq);
            _mm512_storeu_si512(x + j, _mm512_add_epi64(u0, v0));
            _mm512_storeu_si512(x + j + 8, _mm512_add_epi64(u1, v1));
            _mm512_storeu_si512(
                y + j,
                _mm512_add_epi64(_mm512_sub_epi64(u0, v0), v2q));
            _mm512_storeu_si512(
                y + j + 8,
                _mm512_add_epi64(_mm512_sub_epi64(u1, v1), v2q));
        }
        for (; j < gap; j += 8) {
            __m512i u = _mm512_loadu_si512(x + j);
            __m512i yv = _mm512_loadu_si512(y + j);
            u = condSub(u, v2q);
            __m512i v = shoupMulLazyV(yv, w, ws, vq);
            _mm512_storeu_si512(x + j, _mm512_add_epi64(u, v));
            _mm512_storeu_si512(
                y + j,
                _mm512_add_epi64(_mm512_sub_epi64(u, v), v2q));
        }
    }
}

void
fwdNttAvx512(u64 *a, const NttView &t)
{
    const __m512i vq = _mm512_set1_epi64(static_cast<long long>(t.q));
    const __m512i v2q = _mm512_set1_epi64(static_cast<long long>(2 * t.q));
    const simd256::NttConsts c = simd256::nttConsts(t.q);
    u64 m = 1;
    u64 gap = t.n >> 1;
    for (; gap >= 8; m <<= 1, gap >>= 1)
        fwdStageWide512(a, t, m, gap, vq, v2q);
    // gap == 4, 2, 1: shared 256-bit shuffle stages (AVX-512F implies
    // AVX2); the gap-1 stage fuses the final normalization.
    simd256::fwdStageWide(a, t, m, 4, c);
    m <<= 1;
    simd256::fwdStageGap2(a, t, m, c);
    m <<= 1;
    simd256::fwdStageGap1Normalize(a, t, m, c);
}

/** One 512-bit inverse stage (h blocks, gap >= 8), values in [0,2q). */
inline void
invStageWide512(u64 *a, const NttView &t, u64 h, u64 gap, __m512i vq,
                __m512i v2q)
{
    u64 j1 = 0;
    for (u64 i = 0; i < h; ++i) {
        u64 *x = a + j1;
        u64 *y = x + gap;
        const __m512i w =
            _mm512_set1_epi64(static_cast<long long>(t.w[h + i]));
        const __m512i ws = _mm512_set1_epi64(
            static_cast<long long>(t.wShoup[h + i]));
        u64 j = 0;
        for (; j + 16 <= gap; j += 16) {
            __m512i u0 = _mm512_loadu_si512(x + j);
            __m512i u1 = _mm512_loadu_si512(x + j + 8);
            __m512i v0 = _mm512_loadu_si512(y + j);
            __m512i v1 = _mm512_loadu_si512(y + j + 8);
            _mm512_storeu_si512(
                x + j, condSub(_mm512_add_epi64(u0, v0), v2q));
            _mm512_storeu_si512(
                x + j + 8, condSub(_mm512_add_epi64(u1, v1), v2q));
            __m512i d0 = _mm512_add_epi64(_mm512_sub_epi64(u0, v0), v2q);
            __m512i d1 = _mm512_add_epi64(_mm512_sub_epi64(u1, v1), v2q);
            _mm512_storeu_si512(y + j, shoupMulLazyV(d0, w, ws, vq));
            _mm512_storeu_si512(y + j + 8,
                                shoupMulLazyV(d1, w, ws, vq));
        }
        for (; j < gap; j += 8) {
            __m512i u = _mm512_loadu_si512(x + j);
            __m512i v = _mm512_loadu_si512(y + j);
            __m512i s = condSub(_mm512_add_epi64(u, v), v2q);
            _mm512_storeu_si512(x + j, s);
            __m512i d = _mm512_add_epi64(_mm512_sub_epi64(u, v), v2q);
            _mm512_storeu_si512(y + j, shoupMulLazyV(d, w, ws, vq));
        }
        j1 += 2 * gap;
    }
}

/** Final inverse pass: scale by n^{-1}, reduce to canonical [0,q). */
inline void
invNormalizeAvx512(u64 *a, const NttView &t, __m512i vq)
{
    const __m512i nv = _mm512_set1_epi64(static_cast<long long>(t.nInv));
    const __m512i nvs =
        _mm512_set1_epi64(static_cast<long long>(t.nInvShoup));
    for (u64 j = 0; j < t.n; j += 8) {
        __m512i v = _mm512_loadu_si512(a + j);
        v = shoupMulLazyV(v, nv, nvs, vq);
        v = condSub(v, vq);
        _mm512_storeu_si512(a + j, v);
    }
}

void
invNttAvx512(u64 *a, const NttView &t)
{
    const __m512i vq = _mm512_set1_epi64(static_cast<long long>(t.q));
    const __m512i v2q = _mm512_set1_epi64(static_cast<long long>(2 * t.q));
    const simd256::NttConsts c = simd256::nttConsts(t.q);
    // gap == 1, 2, 4: shared 256-bit shuffle stages.
    simd256::invStageGap1(a, t, t.n >> 1, c);
    simd256::invStageGap2(a, t, t.n >> 2, c);
    simd256::invStageWide(a, t, t.n >> 3, 4, c);
    u64 gap = 8;
    for (u64 h = t.n >> 4; h >= 1; h >>= 1, gap <<= 1)
        invStageWide512(a, t, h, gap, vq, v2q);
    invNormalizeAvx512(a, t, vq);
}

/**
 * Batched transforms: stages outermost, polynomials innermost (each
 * stage's twiddle block is streamed once per batch). Per-polynomial
 * butterfly sequence identical to fwdNttAvx512/invNttAvx512, so the
 * results are bit-identical.
 */
void
fwdNttAvx512Batch(u64 *const *polys, u64 count, const NttView &t)
{
    const __m512i vq = _mm512_set1_epi64(static_cast<long long>(t.q));
    const __m512i v2q = _mm512_set1_epi64(static_cast<long long>(2 * t.q));
    const simd256::NttConsts c = simd256::nttConsts(t.q);
    u64 m = 1;
    u64 gap = t.n >> 1;
    for (; gap >= 8; m <<= 1, gap >>= 1)
        for (u64 p = 0; p < count; ++p)
            fwdStageWide512(polys[p], t, m, gap, vq, v2q);
    for (u64 p = 0; p < count; ++p)
        simd256::fwdStageWide(polys[p], t, m, 4, c);
    m <<= 1;
    for (u64 p = 0; p < count; ++p)
        simd256::fwdStageGap2(polys[p], t, m, c);
    m <<= 1;
    for (u64 p = 0; p < count; ++p)
        simd256::fwdStageGap1Normalize(polys[p], t, m, c);
}

void
invNttAvx512Batch(u64 *const *polys, u64 count, const NttView &t)
{
    const __m512i vq = _mm512_set1_epi64(static_cast<long long>(t.q));
    const __m512i v2q = _mm512_set1_epi64(static_cast<long long>(2 * t.q));
    const simd256::NttConsts c = simd256::nttConsts(t.q);
    for (u64 p = 0; p < count; ++p)
        simd256::invStageGap1(polys[p], t, t.n >> 1, c);
    for (u64 p = 0; p < count; ++p)
        simd256::invStageGap2(polys[p], t, t.n >> 2, c);
    for (u64 p = 0; p < count; ++p)
        simd256::invStageWide(polys[p], t, t.n >> 3, 4, c);
    u64 gap = 8;
    for (u64 h = t.n >> 4; h >= 1; h >>= 1, gap <<= 1)
        for (u64 p = 0; p < count; ++p)
            invStageWide512(polys[p], t, h, gap, vq, v2q);
    for (u64 p = 0; p < count; ++p)
        invNormalizeAvx512(polys[p], t, vq);
}

void
addModAvx512(u64 *dst, const u64 *src, u64 n, u64 q)
{
    const __m512i vq = _mm512_set1_epi64(static_cast<long long>(q));
    u64 i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i a = _mm512_loadu_si512(dst + i);
        __m512i b = _mm512_loadu_si512(src + i);
        _mm512_storeu_si512(dst + i, condSub(_mm512_add_epi64(a, b), vq));
    }
    for (; i < n; ++i) {
        u64 s = dst[i] + src[i];
        dst[i] = s >= q ? s - q : s;
    }
}

void
subModAvx512(u64 *dst, const u64 *src, u64 n, u64 q)
{
    const __m512i vq = _mm512_set1_epi64(static_cast<long long>(q));
    u64 i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i a = _mm512_loadu_si512(dst + i);
        __m512i b = _mm512_loadu_si512(src + i);
        __m512i s = _mm512_add_epi64(_mm512_sub_epi64(a, b), vq);
        _mm512_storeu_si512(dst + i, condSub(s, vq));
    }
    for (; i < n; ++i) {
        u64 a = dst[i];
        u64 b = src[i];
        dst[i] = a >= b ? a - b : a + q - b;
    }
}

void
negModAvx512(u64 *dst, u64 n, u64 q)
{
    const __m512i vq = _mm512_set1_epi64(static_cast<long long>(q));
    const __m512i zero = _mm512_setzero_si512();
    u64 i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i a = _mm512_loadu_si512(dst + i);
        __mmask8 nz = _mm512_cmpneq_epi64_mask(a, zero);
        __m512i r = _mm512_maskz_sub_epi64(nz, vq, a);
        _mm512_storeu_si512(dst + i, r);
    }
    for (; i < n; ++i)
        dst[i] = dst[i] == 0 ? 0 : q - dst[i];
}

void
mulModBarrettAvx512(u64 *dst, const u64 *src, u64 n, const BarrettView &q)
{
    const BarrettV b = broadcastBarrett(q);
    u64 i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i a = _mm512_loadu_si512(dst + i);
        __m512i c = _mm512_loadu_si512(src + i);
        _mm512_storeu_si512(dst + i, barrettMulV(a, c, b));
    }
    for (; i < n; ++i) {
        u128 x = static_cast<u128>(dst[i]) * src[i];
        u64 xlo = static_cast<u64>(x);
        u64 xhi = static_cast<u64>(x >> 64);
        u64 carry = mulHi64(xlo, q.lo);
        u128 mid = static_cast<u128>(xlo) * q.hi +
                   static_cast<u128>(xhi) * q.lo + carry;
        u64 quot = static_cast<u64>(mid >> 64) + xhi * q.hi;
        u64 r = xlo - quot * q.q;
        while (r >= q.q)
            r -= q.q;
        dst[i] = r;
    }
}

void
mulScalarShoupAvx512(u64 *dst, u64 n, u64 q, u64 w, u64 wShoup)
{
    const __m512i vq = _mm512_set1_epi64(static_cast<long long>(q));
    const __m512i vw = _mm512_set1_epi64(static_cast<long long>(w));
    const __m512i vws = _mm512_set1_epi64(static_cast<long long>(wShoup));
    u64 i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i a = _mm512_loadu_si512(dst + i);
        __m512i r = condSub(shoupMulLazyV(a, vw, vws, vq), vq);
        _mm512_storeu_si512(dst + i, r);
    }
    for (; i < n; ++i) {
        u64 r = shoupMulLazyS(dst[i], w, wShoup, q);
        dst[i] = r >= q ? r - q : r;
    }
}

void
gatherAvx512(u64 *dst, const u64 *src, const u64 *idx, u64 n)
{
    u64 k = 0;
    for (; k + 8 <= n; k += 8) {
        __m512i vi = _mm512_loadu_si512(idx + k);
        __m512i v = _mm512_i64gather_epi64(vi, src, 8);
        _mm512_storeu_si512(dst + k, v);
    }
    for (; k < n; ++k)
        dst[k] = src[idx[k]];
}

void
bconvXhatAvx512(u64 *xhat, u64 xhatStride, double *vest, const u64 *in,
                u64 inStride, u64 m, u64 cnt, const u64 *mhatInv,
                const u64 *mhatInvShoup, const u64 *qFrom,
                const double *invM)
{
    for (u64 i = 0; i < m; ++i) {
        const u64 *row = in + i * inStride;
        u64 *out = xhat + i * xhatStride;
        const u64 w = mhatInv[i];
        const u64 ws = mhatInvShoup[i];
        const u64 q = qFrom[i];
        const __m512i vq = _mm512_set1_epi64(static_cast<long long>(q));
        const __m512i vw = _mm512_set1_epi64(static_cast<long long>(w));
        const __m512i vws = _mm512_set1_epi64(static_cast<long long>(ws));
        const __m512d vinv = _mm512_set1_pd(invM[i]);
        u64 c = 0;
        for (; c + 8 <= cnt; c += 8) {
            __m512i x = _mm512_loadu_si512(row + c);
            __m512i r = condSub(shoupMulLazyV(x, vw, vws, vq), vq);
            _mm512_storeu_si512(out + c, r);
            __m512d d = _mm512_cvtepu64_pd(r);
            __m512d acc = _mm512_loadu_pd(vest + c);
            acc = _mm512_add_pd(acc, _mm512_mul_pd(d, vinv));
            _mm512_storeu_pd(vest + c, acc);
        }
        for (; c < cnt; ++c) {
            u64 r = shoupMulLazyS(row[c], w, ws, q);
            if (r >= q)
                r -= q;
            out[c] = r;
            double prod = static_cast<double>(r) * invM[i];
            vest[c] = vest[c] + prod;
        }
    }
}

void
bconvOutAvx512(u64 *out, const u64 *xhat, u64 xhatStride, u64 m, u64 cnt,
               const u64 *w, const double *vest, u64 mModT,
               const BarrettView &q)
{
    const BarrettV b = broadcastBarrett(q);
    const __m512i one = _mm512_set1_epi64(1);
    const __m512i vmmod = _mm512_set1_epi64(static_cast<long long>(mModT));
    u64 c = 0;
    for (; c + 8 <= cnt; c += 8) {
        __m512i accLo = _mm512_setzero_si512();
        __m512i accHi = _mm512_setzero_si512();
        for (u64 i = 0; i < m; ++i) {
            __m512i x = _mm512_loadu_si512(xhat + i * xhatStride + c);
            __m512i vw = _mm512_set1_epi64(static_cast<long long>(w[i]));
            __m512i plo = _mm512_mullo_epi64(x, vw);
            __m512i phi = mulHi64v(x, vw);
            __m512i s = _mm512_add_epi64(accLo, plo);
            __mmask8 carry = _mm512_cmplt_epu64_mask(s, plo);
            accLo = s;
            accHi = _mm512_add_epi64(accHi, phi);
            accHi = _mm512_mask_add_epi64(accHi, carry, accHi, one);
        }
        __m512i sres = barrettReduceV(accHi, accLo, b);
        __m512i v = _mm512_cvttpd_epu64(_mm512_loadu_pd(vest + c));
        __m512i corr = barrettMulV(v, vmmod, b);
        __m512i r = _mm512_add_epi64(_mm512_sub_epi64(sres, corr), b.q);
        r = condSub(r, b.q);
        _mm512_storeu_si512(out + c, r);
    }
    for (; c < cnt; ++c) {
        u128 acc = 0;
        for (u64 i = 0; i < m; ++i)
            acc += static_cast<u128>(xhat[i * xhatStride + c]) * w[i];
        u64 xlo = static_cast<u64>(acc);
        u64 xhi = static_cast<u64>(acc >> 64);
        u64 carry = mulHi64(xlo, q.lo);
        u128 mid = static_cast<u128>(xlo) * q.hi +
                   static_cast<u128>(xhi) * q.lo + carry;
        u64 quot = static_cast<u64>(mid >> 64) + xhi * q.hi;
        u64 s = xlo - quot * q.q;
        while (s >= q.q)
            s -= q.q;
        u64 v = static_cast<u64>(vest[c]);
        u128 cx = static_cast<u128>(v) * mModT;
        u64 cxlo = static_cast<u64>(cx);
        u64 cxhi = static_cast<u64>(cx >> 64);
        u64 ccarry = mulHi64(cxlo, q.lo);
        u128 cmid = static_cast<u128>(cxlo) * q.hi +
                    static_cast<u128>(cxhi) * q.lo + ccarry;
        u64 cquot = static_cast<u64>(cmid >> 64) + cxhi * q.hi;
        u64 corr = cxlo - cquot * q.q;
        while (corr >= q.q)
            corr -= q.q;
        out[c] = s >= corr ? s - corr : s + q.q - corr;
    }
}

}  // namespace

const KernelTable &
avx512Table()
{
    static const KernelTable tbl = {
        "avx512",        fwdNttAvx512,        invNttAvx512,
        addModAvx512,    subModAvx512,        negModAvx512,
        mulModBarrettAvx512, mulScalarShoupAvx512, gatherAvx512,
        bconvXhatAvx512, bconvOutAvx512,
        fwdNttAvx512Batch, invNttAvx512Batch,
    };
    return tbl;
}

}  // namespace crophe::fhe::kernels

#endif  // CROPHE_HAVE_AVX512
