#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <vector>

#include "common/arena.h"
#include "common/cpu_features.h"
#include "common/error.h"
#include "common/math_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "fhe/bconv.h"
#include "fhe/bsgs.h"
#include "fhe/chebyshev.h"
#include "fhe/ckks.h"
#include "fhe/kernels/kernels.h"
#include "fhe/ntt.h"
#include "fhe/primes.h"
#include "tests/fhe/test_util.h"

namespace crophe::fhe {
namespace {

using test::smallContext;

/** Every backend compiled in AND runnable on this host. */
std::vector<kernels::Backend>
availableBackends()
{
    std::vector<kernels::Backend> out = {kernels::Backend::Scalar};
    if (kernels::available(kernels::Backend::Avx2))
        out.push_back(kernels::Backend::Avx2);
    if (kernels::available(kernels::Backend::Avx512))
        out.push_back(kernels::Backend::Avx512);
    return out;
}

const kernels::KernelTable &
tableFor(kernels::Backend b)
{
    switch (b) {
    case kernels::Backend::Scalar:
        return kernels::scalarTable();
#ifdef CROPHE_HAVE_AVX2
    case kernels::Backend::Avx2:
        return kernels::avx2Table();
#endif
#ifdef CROPHE_HAVE_AVX512
    case kernels::Backend::Avx512:
        return kernels::avx512Table();
#endif
    default:
        break;
    }
    return kernels::scalarTable();
}

/** Restores the process-wide backend selection on scope exit. */
class BackendScope
{
  public:
    BackendScope() : saved_(kernels::activeBackend()) {}
    ~BackendScope() { kernels::setBackend(saved_); }

  private:
    kernels::Backend saved_;
};

std::vector<u64>
randomCanonical(Rng &rng, u64 n, u64 q)
{
    std::vector<u64> v(n);
    for (auto &x : v)
        x = rng.nextBounded(q);
    return v;
}

// ---------------------------------------------------------------------------
// NTT differentials: every backend vs the retained seed transform
// (referenceFwdNtt/referenceInvNtt) and vs each other, across the ISSUE's
// size/prime grid.
// ---------------------------------------------------------------------------

TEST(KernelNtt, AllBackendsMatchSeedReferenceAcrossSizesAndPrimes)
{
    Rng rng(9001);
    for (u64 n : {u64(1) << 10, u64(1) << 12, u64(1) << 14, u64(1) << 16}) {
        for (u32 bits : {28u, 36u, 59u}) {
            u64 q = generateNttPrimes(bits, n, 1)[0];
            Modulus mod(q);
            NttTables tables(n, mod);
            kernels::NttView fwd = tables.forwardView();
            kernels::NttView inv = tables.inverseView();

            std::vector<u64> input = randomCanonical(rng, n, q);

            // Seed reference: eager per-butterfly reduction, kept verbatim.
            std::vector<u64> ref_f = input;
            kernels::referenceFwdNtt(ref_f.data(), fwd);
            std::vector<u64> ref_b = ref_f;
            kernels::referenceInvNtt(ref_b.data(), inv);
            EXPECT_EQ(ref_b, input) << "seed reference round trip n=" << n;

            for (kernels::Backend b : availableBackends()) {
                const kernels::KernelTable &kt = tableFor(b);
                std::vector<u64> got = input;
                kt.fwdNtt(got.data(), fwd);
                EXPECT_EQ(got, ref_f) << kt.name << " fwd n=" << n
                                      << " bits=" << bits;
                kt.invNtt(got.data(), inv);
                EXPECT_EQ(got, input) << kt.name << " inv n=" << n
                                      << " bits=" << bits;
            }
        }
    }
}

TEST(KernelNtt, ForwardMatchesNaiveBitReversedAtSmallN)
{
    const u64 n = 1 << 10;
    const u32 logn = 10;
    Rng rng(9002);
    u64 q = generateNttPrimes(36, n, 1)[0];
    Modulus mod(q);
    NttTables tables(n, mod);

    std::vector<u64> a = randomCanonical(rng, n, q);
    std::vector<u64> naive = nttNaiveNegacyclic(a, mod, tables.psi());

    for (kernels::Backend b : availableBackends()) {
        std::vector<u64> got = a;
        tableFor(b).fwdNtt(got.data(), tables.forwardView());
        for (u64 k = 0; k < n; ++k)
            ASSERT_EQ(got[k], naive[bitReverse(k, logn)])
                << tableFor(b).name << " k=" << k;
    }
}

TEST(KernelNtt, TinyTransformsStayOnScalarPathAndRoundTrip)
{
    // n < vector width must not crash or diverge: the dispatcher routes
    // them to the scalar table.
    Rng rng(9003);
    for (u64 n : {u64(2), u64(4)}) {
        u64 q = generateNttPrimes(36, n, 1)[0];
        Modulus mod(q);
        NttTables tables(n, mod);
        std::vector<u64> a = randomCanonical(rng, n, q);
        std::vector<u64> got = a;
        tables.forward(got);
        tables.inverse(got);
        EXPECT_EQ(got, a) << "n=" << n;
    }
}

// ---------------------------------------------------------------------------
// Element-wise kernels: random-input differentials against naive u128
// arithmetic, odd lengths to exercise the vector tails.
// ---------------------------------------------------------------------------

TEST(KernelElementwise, AllBackendsMatchNaiveArithmetic)
{
    Rng rng(9010);
    const u64 n = 1003;  // odd: exercises the scalar tail of SIMD loops
    // 49/50 bits: the library's default moduli and the widest the avx512
    // multiply's float-quotient path serves; 59 runs its Barrett path.
    for (u32 bits : {28u, 36u, 49u, 50u, 59u}) {
        u64 q = generateNttPrimes(bits, 1 << 10, 1)[0];
        Modulus mod(q);
        kernels::BarrettView bv{q, mod.barrettLo(), mod.barrettHi()};

        std::vector<u64> a = randomCanonical(rng, n, q);
        std::vector<u64> b = randomCanonical(rng, n, q);
        u64 w = rng.nextBounded(q);
        u64 w_shoup = shoupQuotient(w, q);

        std::vector<u64> add_ref(n), sub_ref(n), neg_ref(n), mul_ref(n),
            muls_ref(n);
        for (u64 i = 0; i < n; ++i) {
            add_ref[i] = a[i] + b[i] >= q ? a[i] + b[i] - q : a[i] + b[i];
            sub_ref[i] = a[i] >= b[i] ? a[i] - b[i] : a[i] + q - b[i];
            neg_ref[i] = a[i] == 0 ? 0 : q - a[i];
            mul_ref[i] = u64(u128(a[i]) * b[i] % q);
            muls_ref[i] = u64(u128(a[i]) * w % q);
        }

        std::vector<u64> idx(n);
        for (u64 i = 0; i < n; ++i)
            idx[i] = rng.nextBounded(n);
        std::vector<u64> gather_ref(n);
        for (u64 i = 0; i < n; ++i)
            gather_ref[i] = a[idx[i]];

        for (kernels::Backend back : availableBackends()) {
            const kernels::KernelTable &kt = tableFor(back);
            std::vector<u64> d;

            d = a;
            kt.addMod(d.data(), b.data(), n, q);
            EXPECT_EQ(d, add_ref) << kt.name << " addMod bits=" << bits;

            d = a;
            kt.subMod(d.data(), b.data(), n, q);
            EXPECT_EQ(d, sub_ref) << kt.name << " subMod bits=" << bits;

            d = a;
            kt.negMod(d.data(), n, q);
            EXPECT_EQ(d, neg_ref) << kt.name << " negMod bits=" << bits;

            d = a;
            kt.mulModBarrett(d.data(), b.data(), n, bv);
            EXPECT_EQ(d, mul_ref) << kt.name << " mulModBarrett bits=" << bits;

            d = a;
            kt.mulScalarShoup(d.data(), n, q, w, w_shoup);
            EXPECT_EQ(d, muls_ref) << kt.name << " mulScalarShoup bits="
                                   << bits;

            d.assign(n, 0);
            kt.gather(d.data(), a.data(), idx.data(), n);
            EXPECT_EQ(d, gather_ref) << kt.name << " gather bits=" << bits;
        }
    }
}

TEST(KernelElementwise, EdgeResiduesZeroAndQMinusOne)
{
    const u64 n = 16;
    // (q−1)² at 50 bits is the float-quotient path's largest product.
    for (u32 bits : {50u, 59u}) {
        u64 q = generateNttPrimes(bits, 1 << 10, 1)[0];
        Modulus mod(q);
        kernels::BarrettView bv{q, mod.barrettLo(), mod.barrettHi()};

        std::vector<u64> a(n), b(n);
        for (u64 i = 0; i < n; ++i) {
            a[i] = (i % 2) ? q - 1 : 0;
            b[i] = (i % 3) ? q - 1 : 0;
        }

        for (kernels::Backend back : availableBackends()) {
            const kernels::KernelTable &kt = tableFor(back);
            std::vector<u64> d = a;
            kt.addMod(d.data(), b.data(), n, q);
            for (u64 i = 0; i < n; ++i)
                EXPECT_EQ(d[i], (a[i] + b[i]) % q)
                    << kt.name << " bits=" << bits << " i=" << i;
            d = a;
            kt.mulModBarrett(d.data(), b.data(), n, bv);
            for (u64 i = 0; i < n; ++i)
                EXPECT_EQ(d[i], u64(u128(a[i]) * b[i] % q))
                    << kt.name << " bits=" << bits << " i=" << i;
            d = a;
            kt.negMod(d.data(), n, q);
            for (u64 i = 0; i < n; ++i)
                EXPECT_EQ(d[i], a[i] ? q - a[i] : 0)
                    << kt.name << " bits=" << bits << " i=" << i;
        }
    }
}

// ---------------------------------------------------------------------------
// BConv / ModUp / ModDown / key-switch: backends must be limb-for-limb
// identical through the full composite paths, at 1, 2 and 8 threads.
// ---------------------------------------------------------------------------

TEST(KernelBconv, ConvertIdenticalAcrossBackendsAndThreadCounts)
{
    BackendScope restore;
    const FheContext &ctx = smallContext();
    Rng rng(9020);
    RnsPoly in(ctx, ctx.qBasis(3), Rep::Coeff);
    in.uniformRandom(rng);
    BaseConverter conv(ctx, ctx.qBasis(3), ctx.pBasis());

    kernels::setBackend(kernels::Backend::Scalar);
    ThreadPool::setGlobalThreads(1);
    RnsPoly ref = conv.convert(in);

    for (u32 threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        for (kernels::Backend b : availableBackends()) {
            kernels::setBackend(b);
            RnsPoly got = conv.convert(in);
            for (u32 l = 0; l < ref.limbCount(); ++l)
                EXPECT_EQ(got.limbVec(l), ref.limbVec(l))
                    << kernels::backendName(b) << " threads=" << threads
                    << " limb " << l;
        }
    }
    ThreadPool::setGlobalThreads(0);
}

TEST(KernelBconv, ModUpModDownIdenticalAcrossBackends)
{
    BackendScope restore;
    const FheContext &ctx = smallContext();
    Rng rng(9021);
    const u32 level = 4;
    RnsPoly d(ctx, ctx.qBasis(level), Rep::Coeff);
    d.uniformRandom(rng);

    kernels::setBackend(kernels::Backend::Scalar);
    RnsPoly up_ref = modUpDigit(ctx, d, 1, level);
    RnsPoly down_ref = modDown(ctx, up_ref, level);

    for (kernels::Backend b : availableBackends()) {
        kernels::setBackend(b);
        RnsPoly up = modUpDigit(ctx, d, 1, level);
        RnsPoly down = modDown(ctx, up, level);
        for (u32 l = 0; l < up_ref.limbCount(); ++l)
            EXPECT_EQ(up.limbVec(l), up_ref.limbVec(l))
                << kernels::backendName(b) << " modup limb " << l;
        for (u32 l = 0; l < down_ref.limbCount(); ++l)
            EXPECT_EQ(down.limbVec(l), down_ref.limbVec(l))
                << kernels::backendName(b) << " moddown limb " << l;
    }
}

TEST(KernelBconv, KeySwitchPipelineIdenticalAcrossBackendsAndThreads)
{
    BackendScope restore;
    const FheContext &ctx = smallContext();
    KeyGenerator keygen(ctx, 1234);
    PublicKey pk = keygen.makePublicKey();
    KswKey rlk = keygen.makeRelinKey();
    KswKey rk = keygen.makeRotationKey(3);

    auto run = [&]() {
        Evaluator eval(ctx, 77);
        Rng rng(78);
        std::vector<double> v(ctx.n() / 2);
        for (auto &x : v)
            x = rng.nextDouble() - 0.5;
        Plaintext pt = eval.encoder().encodeReal(v, ctx.maxLevel());
        Ciphertext ct = eval.encrypt(pt, pk);
        Ciphertext prod = eval.mul(ct, ct, rlk);
        Ciphertext rot = eval.rotate(prod, 3, rk);
        std::vector<std::vector<u64>> limbs;
        for (u32 l = 0; l < rot.a.limbCount(); ++l)
            limbs.push_back(rot.a.limbVec(l));
        for (u32 l = 0; l < rot.b.limbCount(); ++l)
            limbs.push_back(rot.b.limbVec(l));
        return limbs;
    };

    kernels::setBackend(kernels::Backend::Scalar);
    ThreadPool::setGlobalThreads(1);
    auto ref = run();

    for (u32 threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        for (kernels::Backend b : availableBackends()) {
            kernels::setBackend(b);
            EXPECT_EQ(run(), ref)
                << kernels::backendName(b) << " threads=" << threads;
        }
    }
    ThreadPool::setGlobalThreads(0);
}

// ---------------------------------------------------------------------------
// Golden bit-identity: a fixed CKKS pipeline (encode → encrypt → add →
// mul+relin → rescale → rotate → conjugate → modup → moddown → decrypt)
// whose per-step limb hashes were recorded against the seed library
// (pre-kernel-layer scalar code). Any backend, any thread count, must
// reproduce every hash exactly.
// ---------------------------------------------------------------------------

u64
fnv1a(u64 h, const u64 *p, u64 n)
{
    for (u64 i = 0; i < n; ++i) {
        u64 x = p[i];
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (x >> (8 * byte)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    return h;
}

u64
hashPoly(const RnsPoly &p)
{
    u64 h = 1469598103934665603ull;
    for (u32 i = 0; i < p.limbCount(); ++i)
        h = fnv1a(h, p.limb(i).data(), p.n());
    return h;
}

u64
hashCt(const Ciphertext &ct)
{
    u64 h = hashPoly(ct.b);
    h ^= hashPoly(ct.a) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

TEST(KernelGolden, BootstrapScalePipelineMatchesSeedHashes)
{
    // Hashes recorded by running this exact pipeline against the seed
    // library (commit 8a0410c, scalar only). They pin bit-identity of the
    // whole rewrite: lazy-reduction NTT, SIMD kernels, slab layout,
    // cached converters, tiled BConv.
    struct Step
    {
        const char *name;
        u64 hash;
    };
    static constexpr Step kGolden[] = {
        {"encode", 0xbb67c3cf19427f77ull},  {"encrypt", 0x34e1a62e47af48fcull},
        {"hadd", 0x1d6f883d646a6442ull},    {"hmult", 0xbd02b894146c591full},
        {"rescale", 0x3f255032adfbc33eull}, {"rotate", 0x4862a403cb1172a5ull},
        {"conjugate", 0xd63ab6022ed61fbfull},
        {"modup", 0xad07f53ab19f1588ull},   {"moddown", 0x444351fe063b0383ull},
        {"decrypt", 0x92d714c7d771321aull},
    };

    FheContextParams p;
    p.n = 1 << 12;
    p.levels = 4;
    p.alpha = 2;
    FheContext ctx(p);
    KeyGenerator keygen(ctx, 42);
    PublicKey pk = keygen.makePublicKey();
    KswKey rlk = keygen.makeRelinKey();
    KswKey rk1 = keygen.makeRotationKey(1);
    KswKey ck = keygen.makeConjugationKey();
    Evaluator eval(ctx, 7);

    Rng rng(8);
    std::vector<double> v(ctx.n() / 2);
    for (auto &x : v)
        x = rng.nextDouble() - 0.5;

    std::vector<u64> got;
    Plaintext pt = eval.encoder().encodeReal(v, ctx.maxLevel());
    got.push_back(hashPoly(pt.poly));

    Ciphertext ct0 = eval.encrypt(pt, pk);
    Ciphertext ct1 = eval.encrypt(pt, pk);
    got.push_back(hashCt(ct0));
    got.push_back(hashCt(eval.add(ct0, ct1)));

    Ciphertext prod = eval.mul(ct0, ct1, rlk);
    got.push_back(hashCt(prod));

    Ciphertext rs = eval.rescale(prod);
    got.push_back(hashCt(rs));

    Ciphertext rot = eval.rotate(rs, 1, rk1);
    got.push_back(hashCt(rot));

    Ciphertext conj = eval.conjugate(rot, ck);
    got.push_back(hashCt(conj));

    RnsPoly d = prod.a;
    d.toCoeff();
    RnsPoly up = modUpDigit(ctx, d, 0, prod.level);
    got.push_back(hashPoly(up));
    got.push_back(hashPoly(modDown(ctx, up, prod.level)));

    got.push_back(hashPoly(eval.decrypt(conj, keygen.secretKey()).poly));

    ASSERT_EQ(got.size(), std::size(kGolden));
    for (u64 i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], kGolden[i].hash)
            << kGolden[i].name << " diverged from the seed library on "
            << kernels::table().name;
}

TEST(KernelGolden, HybridMatVecThenHornerMatchesPinnedHash)
{
    // The composite half of the encrypted-inference op: a BSGS matvec
    // (Hybrid, r=4, n1=8, n2=4) then a cubic Horner evaluation, as in
    // examples/private_inference. The hash covers the limbs of both
    // outputs and the bits of every decoded slot; it and the transform
    // count were recorded at commit dc2f0bf, before the in-place
    // accumulation, the one-shot CRT decode and the float-quotient
    // multiply landed, on all three backends.
    constexpr u64 kPinnedHash = 0xdaea248c8b46badaull;
    constexpr u64 kPinnedLimbTransforms = 617;

    const FheContext &ctx = smallContext();
    const u32 n1 = 8, n2 = 4, r_hyb = 4;
    const u64 dim = n1 * n2;
    const u64 slots = ctx.n() / 2;
    KeyGenerator keygen(ctx, 91);
    PublicKey pk = keygen.makePublicKey();
    KswKey rlk = keygen.makeRelinKey();
    BsgsKeys keys;
    for (i64 r : requiredRotations(n1, n2, RotStrategy::Hybrid, r_hyb))
        keys.rot.emplace(r, keygen.makeRotationKey(r));
    Evaluator eval(ctx, 92);

    Rng rng(93);
    std::vector<std::vector<double>> w(dim, std::vector<double>(dim));
    for (auto &row : w)
        for (auto &e : row)
            e = rng.nextDouble() - 0.5;
    std::vector<double> x(slots);
    for (u64 i = 0; i < slots; ++i)
        x[i] = i < dim ? rng.nextDouble() - 0.5 : x[i % dim];
    auto diags = matrixDiagonals(w, slots);

    const u64 transforms_before = nttLimbTransforms();
    Ciphertext ct =
        eval.encrypt(eval.encoder().encodeReal(x, ctx.maxLevel()), pk);
    Ciphertext wx =
        ptMatVecMult(eval, ct, diags, n1, n2, RotStrategy::Hybrid, r_hyb,
                     keys);
    Ciphertext y = evalPolyHorner(eval, wx, {0.5, 0.197, 0.0, -0.004}, rlk);
    auto slots_out =
        eval.encoder().decode(eval.decrypt(y, keygen.secretKey()));
    const u64 transforms = nttLimbTransforms() - transforms_before;

    u64 h = hashCt(wx);
    h ^= hashCt(y) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    for (const Cplx &v : slots_out) {
        const u64 bits[2] = {std::bit_cast<u64>(v.real()),
                             std::bit_cast<u64>(v.imag())};
        h = fnv1a(h, bits, 2);
    }
    EXPECT_EQ(h, kPinnedHash) << "on " << kernels::table().name;
    EXPECT_EQ(transforms, kPinnedLimbTransforms);

    // Sanity: the pinned values decrypt to the plaintext computation.
    auto wx_ref =
        matVecRef(w, std::vector<double>(x.begin(), x.begin() + dim));
    for (u64 i = 0; i < dim; ++i)
        EXPECT_NEAR(slots_out[i].real(),
                    evalPolyRef({0.5, 0.197, 0.0, -0.004}, wx_ref[i]), 1e-3)
            << "slot " << i;
}

// ---------------------------------------------------------------------------
// Dispatch, arena and CPU-feature plumbing.
// ---------------------------------------------------------------------------

TEST(KernelDispatch, ScalarAlwaysAvailableAndNamesRoundTrip)
{
    BackendScope restore;
    EXPECT_TRUE(kernels::available(kernels::Backend::Scalar));
    kernels::setBackend(kernels::Backend::Scalar);
    EXPECT_EQ(kernels::activeBackend(), kernels::Backend::Scalar);
    EXPECT_STREQ(kernels::table().name, "scalar");

    kernels::setBackend(kernels::parseBackend("auto"));
    kernels::setBackend(kernels::parseBackend("scalar"));
    EXPECT_EQ(kernels::activeBackend(), kernels::Backend::Scalar);
    // Unknown names are rejected without changing the selection.
    EXPECT_THROW(kernels::parseBackend("sse9"), RecoverableError);
    EXPECT_EQ(kernels::activeBackend(), kernels::Backend::Scalar);
}

TEST(KernelDispatch, AvailabilityIsConsistentWithCpuFeatures)
{
    const CpuFeatures &f = cpuFeatures();
#ifdef CROPHE_HAVE_AVX2
    EXPECT_EQ(kernels::available(kernels::Backend::Avx2), f.avx2);
#else
    EXPECT_FALSE(kernels::available(kernels::Backend::Avx2));
#endif
#ifdef CROPHE_HAVE_AVX512
    EXPECT_EQ(kernels::available(kernels::Backend::Avx512), f.avx512);
#else
    EXPECT_FALSE(kernels::available(kernels::Backend::Avx512));
#endif
}

TEST(ScratchArena, ScopeRewindReusesStorage)
{
    ScratchArena &arena = ScratchArena::local();
    u64 *first = nullptr;
    {
        ScratchArena::Scope scope;
        first = arena.alloc<u64>(1024);
        ASSERT_NE(first, nullptr);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(first) % kCacheLineBytes, 0u);
        first[0] = 42;
        first[1023] = 43;
    }
    {
        // After rewind the same storage is handed out again.
        ScratchArena::Scope scope;
        u64 *second = arena.alloc<u64>(1024);
        EXPECT_EQ(second, first);
    }
}

TEST(ScratchArena, NestedScopesRewindIndependently)
{
    ScratchArena &arena = ScratchArena::local();
    ScratchArena::Scope outer;
    u64 *a = arena.alloc<u64>(16);
    u64 *inner_ptr = nullptr;
    {
        ScratchArena::Scope inner;
        inner_ptr = arena.alloc<u64>(16);
        EXPECT_NE(inner_ptr, a);
    }
    // Inner rewind must not release the outer allocation.
    u64 *b = arena.alloc<u64>(16);
    EXPECT_EQ(b, inner_ptr);
    EXPECT_NE(b, a);
}

}  // namespace
}  // namespace crophe::fhe
