#include "fhe/ntt.h"

#include <atomic>

#include "common/logging.h"
#include "common/math_util.h"
#include "fhe/kernels/autotune.h"
#include "fhe/primes.h"

namespace crophe::fhe {

namespace {

std::atomic<u64> g_limb_transforms{0};

}  // namespace

u64
nttLimbTransforms()
{
    return g_limb_transforms.load(std::memory_order_relaxed);
}

namespace {

/** Canonical Shoup product (a < q, w < q, ws = floor(w·2^64/q)). */
inline u64
shoupMulCanonical(u64 a, u64 w, u64 ws, u64 q)
{
    u64 hi = static_cast<u64>((static_cast<u128>(a) * ws) >> 64);
    u64 r = a * w - hi * q;
    return r >= q ? r - q : r;
}

/** The SIMD transforms process 8 lanes at a time; tiny transforms
 *  (four-step building blocks can be this small) stay scalar. */
inline const kernels::KernelTable &
tableForSize(u64 n)
{
    return n >= 8 ? kernels::table() : kernels::scalarTable();
}

}  // namespace

NttTables::NttTables(u64 n, const Modulus &mod)
    : n_(n), logn_(log2Exact(n)), mod_(mod)
{
    CROPHE_ASSERT((mod.value() - 1) % (2 * n) == 0,
                  "modulus ", mod.value(), " not NTT-friendly for N=", n);
    psi_ = findPrimitiveRoot(mod.value(), 2 * n);
    psiInv_ = mod_.inv(psi_);
    nInv_ = mod_.inv(n);
    nInvShoup_ = shoupQuotient(nInv_, mod_.value());

    fwdW_.assign(n);
    fwdShoup_.assign(n);
    invW_.assign(n);
    invShoup_.assign(n);
    u64 p = 1;
    std::vector<u64> psi_pow(n), psi_inv_pow(n);
    for (u64 i = 0; i < n; ++i) {
        psi_pow[i] = p;
        p = mod_.mul(p, psi_);
    }
    p = 1;
    for (u64 i = 0; i < n; ++i) {
        psi_inv_pow[i] = p;
        p = mod_.mul(p, psiInv_);
    }
    const u64 q = mod_.value();
    for (u64 i = 0; i < n; ++i) {
        u64 br = bitReverse(i, logn_);
        fwdW_[i] = psi_pow[br];
        fwdShoup_[i] = shoupQuotient(psi_pow[br], q);
        invW_[i] = psi_inv_pow[br];
        invShoup_[i] = shoupQuotient(psi_inv_pow[br], q);
    }
}

kernels::NttView
NttTables::forwardView() const
{
    return {fwdW_.data(), fwdShoup_.data(), n_, mod_.value(), 0, 0};
}

kernels::NttView
NttTables::inverseView() const
{
    return {invW_.data(),  invShoup_.data(), n_,
            mod_.value(), nInv_,            nInvShoup_};
}

void
NttTables::forward(u64 *a) const
{
    g_limb_transforms.fetch_add(1, std::memory_order_relaxed);
    kernels::NttView v = forwardView();
    tableForSize(n_).fwdNtt(a, v);
}

void
NttTables::inverse(u64 *a) const
{
    g_limb_transforms.fetch_add(1, std::memory_order_relaxed);
    kernels::NttView v = inverseView();
    tableForSize(n_).invNtt(a, v);
}

void
NttTables::forwardBatched(u64 *const *polys, u64 count) const
{
    g_limb_transforms.fetch_add(count, std::memory_order_relaxed);
    kernels::NttView v = forwardView();
    const kernels::KernelTable &kt = tableForSize(n_);
    u64 tile = kernels::autotuner().batchTile(n_, count,
                                              kernels::activeBackend());
    kernels::fwdNttBatched(kt, polys, count, v, tile);
}

void
NttTables::inverseBatched(u64 *const *polys, u64 count) const
{
    g_limb_transforms.fetch_add(count, std::memory_order_relaxed);
    kernels::NttView v = inverseView();
    const kernels::KernelTable &kt = tableForSize(n_);
    u64 tile = kernels::autotuner().batchTile(n_, count,
                                              kernels::activeBackend());
    kernels::invNttBatched(kt, polys, count, v, tile);
}

std::vector<u64>
nttNaiveNegacyclic(const std::vector<u64> &a, const Modulus &mod, u64 psi)
{
    u64 n = a.size();
    std::vector<u64> out(n, 0);
    for (u64 k = 0; k < n; ++k) {
        u64 acc = 0;
        for (u64 i = 0; i < n; ++i) {
            u64 w = mod.pow(psi, (i * (2 * k + 1)) % (2 * n));
            acc = mod.add(acc, mod.mul(a[i], w));
        }
        out[k] = acc;
    }
    return out;
}

std::vector<u64>
polyMulNaive(const std::vector<u64> &a, const std::vector<u64> &b,
             const Modulus &mod)
{
    u64 n = a.size();
    CROPHE_ASSERT(b.size() == n, "size mismatch");
    std::vector<u64> out(n, 0);
    for (u64 i = 0; i < n; ++i) {
        for (u64 j = 0; j < n; ++j) {
            u64 prod = mod.mul(a[i], b[j]);
            u64 k = i + j;
            if (k < n)
                out[k] = mod.add(out[k], prod);
            else
                out[k - n] = mod.sub(out[k - n], prod);  // X^N = -1
        }
    }
    return out;
}

CyclicNtt::CyclicNtt(u64 n, const Modulus &mod, u64 omega)
    : n_(n), logn_(log2Exact(n)), mod_(mod)
{
    buildStages(&fwd_, omega);
    buildStages(&inv_, mod_.inv(omega));
    nInv_ = mod_.inv(mod_.reduce64(n_));
    nInvShoup_ = shoupQuotient(nInv_, mod_.value());
}

void
CyclicNtt::buildStages(StageTables *t, u64 root) const
{
    const u64 q = mod_.value();
    t->w.assign(n_ > 0 ? n_ - 1 : 0);
    t->wShoup.assign(n_ > 0 ? n_ - 1 : 0);
    for (u64 len = 2; len <= n_; len <<= 1) {
        const u64 half = len / 2;
        const u64 wLen = mod_.pow(root, n_ / len);
        u64 w = 1;
        for (u64 j = 0; j < half; ++j) {
            t->w[half - 1 + j] = w;
            t->wShoup[half - 1 + j] = shoupQuotient(w, q);
            w = mod_.mul(w, wLen);
        }
    }
}

void
CyclicNtt::core(u64 *a, const StageTables &t) const
{
    const u64 q = mod_.value();
    // Bit-reverse permutation so that natural input -> natural output.
    for (u64 i = 0; i < n_; ++i) {
        u64 j = bitReverse(i, logn_);
        if (i < j)
            std::swap(a[i], a[j]);
    }
    for (u64 len = 2; len <= n_; len <<= 1) {
        const u64 half = len / 2;
        const u64 *w = t.w.data() + (half - 1);
        const u64 *ws = t.wShoup.data() + (half - 1);
        for (u64 i = 0; i < n_; i += len) {
            for (u64 j = 0; j < half; ++j) {
                u64 u = a[i + j];
                u64 v = shoupMulCanonical(a[i + j + half], w[j], ws[j], q);
                a[i + j] = mod_.add(u, v);
                a[i + j + half] = mod_.sub(u, v);
            }
        }
    }
}

void
CyclicNtt::forward(u64 *a) const
{
    core(a, fwd_);
}

void
CyclicNtt::inverse(u64 *a) const
{
    core(a, inv_);
    const u64 q = mod_.value();
    for (u64 i = 0; i < n_; ++i)
        a[i] = shoupMulCanonical(a[i], nInv_, nInvShoup_, q);
}

void
cyclicNtt(u64 *a, u64 n, const Modulus &mod, u64 omega)
{
    CyclicNtt(n, mod, omega).forward(a);
}

void
cyclicInverseNtt(u64 *a, u64 n, const Modulus &mod, u64 omega)
{
    CyclicNtt(n, mod, omega).inverse(a);
}

}  // namespace crophe::fhe
