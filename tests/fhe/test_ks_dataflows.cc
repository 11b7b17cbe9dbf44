/**
 * @file
 * Differential tests for the key switch and the triple-hoisted BSGS
 * strategy (DESIGN.md §15): the fused key switch must be bit-identical
 * to the unfused exact library path across levels, digit counts,
 * backends and thread counts; the hoisting primitives must reproduce
 * keySwitch and rotate() exactly; the triple-hoisted
 * matvec must match a same-math oracle bit-for-bit and decrypt to the
 * reference within rounding noise. Suites carry the Kernel prefix so the
 * CI sanitizer job's gtest filter picks them up.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "fhe/automorphism.h"
#include "fhe/bconv.h"
#include "fhe/bsgs.h"
#include "fhe/ckks.h"
#include "fhe/kernels/kernels.h"
#include "tests/fhe/test_util.h"

namespace crophe::fhe {
namespace {

using test::smallContext;
using test::smallParamsAlpha1;

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

/** Restores the process-wide backend selection on scope exit. */
class BackendScope
{
  public:
    BackendScope() : saved_(kernels::activeBackend()) {}
    ~BackendScope() { kernels::setBackend(saved_); }

  private:
    kernels::Backend saved_;
};

RnsPoly
randomPoly(const FheContext &ctx, const std::vector<u32> &basis, Rng &rng,
           Rep rep = Rep::Eval)
{
    RnsPoly p(ctx, basis, Rep::Coeff);
    for (u32 i = 0; i < p.limbCount(); ++i) {
        const u64 q = p.mod(i).value();
        u64 *d = p.limb(i).data();
        for (u64 k = 0; k < p.n(); ++k)
            d[k] = rng.nextBounded(q);
    }
    if (rep == Rep::Eval)
        p.toEval();
    return p;
}

void
expectPolysEqual(const RnsPoly &got, const RnsPoly &want, const char *what)
{
    ASSERT_EQ(got.limbCount(), want.limbCount()) << what;
    ASSERT_EQ(got.rep(), want.rep()) << what;
    for (u32 i = 0; i < got.limbCount(); ++i) {
        const u64 *g = got.limb(i).data();
        const u64 *w = want.limb(i).data();
        for (u64 k = 0; k < got.n(); ++k)
            ASSERT_EQ(g[k], w[k]) << what << " limb " << i << " coeff " << k;
    }
}

u64
fnv1a(u64 h, u64 v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

u64
hashPoly(u64 h, const RnsPoly &p)
{
    for (u32 i = 0; i < p.limbCount(); ++i) {
        const u64 *d = p.limb(i).data();
        for (u64 k = 0; k < p.n(); ++k)
            h = fnv1a(h, d[k]);
    }
    return h;
}

// ---------------------------------------------------------------------------
// The fused key switch bit-identical to the unfused exact library path,
// across levels (and with them digit counts β = 1…ceil((L+1)/α)), both
// digit layouts (α = 2 and α = 1), every backend, and 1/2/8 threads.
// ---------------------------------------------------------------------------

TEST(KernelKsDataflow, AllDataflowsBitIdenticalAcrossLevelsBackendsThreads)
{
    BackendScope backend_scope;
    static FheContext ctx_alpha1(smallParamsAlpha1());
    const FheContext *contexts[] = {&smallContext(), &ctx_alpha1};
    Rng rng(9002);

    for (const FheContext *ctx : contexts) {
        KeyGenerator keygen(*ctx, 42);
        KswKey rk = keygen.makeRotationKey(1);
        Evaluator eval(*ctx, 7);

        for (u32 level : {u32(1), ctx->maxLevel()}) {
            RnsPoly d = randomPoly(*ctx, ctx->qBasis(level), rng);

            kernels::setBackend(kernels::Backend::Scalar);
            ThreadPool::setGlobalThreads(1);
            auto [want_b, want_a] = eval.keySwitchUnfused(d, level, rk);

            for (u32 threads : {1u, 2u, 8u}) {
                ThreadPool::setGlobalThreads(threads);
                for (kernels::Backend b : availableBackends()) {
                    kernels::setBackend(b);
                    auto [fb, fa] = eval.keySwitch(d, level, rk);
                    expectPolysEqual(fb, want_b, "fused");
                    expectPolysEqual(fa, want_a, "fused");
                }
            }
            ThreadPool::setGlobalThreads(0);
        }
    }
}

// ---------------------------------------------------------------------------
// Hoisting primitives: decomp+modup / inner product / rotate.
// ---------------------------------------------------------------------------

TEST(KernelHoisting, InnerProdPlusModDownMatchesKeySwitchFused)
{
    const FheContext &ctx = smallContext();
    KeyGenerator keygen(ctx, 42);
    KswKey rk = keygen.makeRotationKey(1);
    Evaluator eval(ctx, 7);
    Rng rng(9003);

    for (u32 level : {u32(1), ctx.maxLevel()}) {
        RnsPoly d = randomPoly(ctx, ctx.qBasis(level), rng);
        auto [want_b, want_a] = eval.keySwitch(d, level, rk);

        auto digits = eval.hoistedDecompModUp(d, level);
        ASSERT_EQ(digits.size(), ctx.digitCount(level));
        auto [ip_b, ip_a] = eval.hoistedInnerProd(digits, rk);
        auto [got_b, got_a] = modDownEvalPair(ctx, ip_b, ip_a, level);
        expectPolysEqual(got_b, want_b, "hoisted b");
        expectPolysEqual(got_a, want_a, "hoisted a");
    }
}

/**
 * Hoisted-rotate oracle built from the unfused seed primitives: ModUp
 * every digit via modUpDigit, permute the digits, inner product with
 * restricted key copies, coefficient-domain ModDown. Same dataflow as
 * Evaluator::hoistedRotate, independently coded path.
 *
 * Note hoisting is NOT bit-identical to rotate(): ψ carries sign flips,
 * and the exact BConv of a canonical representative is not odd-symmetric
 * — permuting after ModUp shifts the extended limbs by multiples of the
 * digit modulus versus ModUp-after-ψ. That lift ambiguity is absorbed by
 * key-switch noise (standard hoisting), so the check is oracle
 * bit-identity plus a decrypt-level comparison against rotate().
 */
Ciphertext
hoistedRotateOracle(const FheContext &ctx, const Ciphertext &ct, i64 r,
                    const KswKey &rk)
{
    const u32 level = ct.level;
    const u32 beta = ctx.digitCount(level);
    auto qp = ctx.qpBasis(level);
    const u64 g = galoisElementForRotation(r, ctx.n());

    RnsPoly a_coeff = ct.a;
    a_coeff.toCoeff();
    RnsPoly acc_b(ctx, qp, Rep::Eval);
    RnsPoly acc_a(ctx, qp, Rep::Eval);
    for (u32 j = 0; j < beta; ++j) {
        RnsPoly up = modUpDigit(ctx, a_coeff, j, level);
        up.toEval();
        RnsPoly rot = applyAutomorphism(up, g);
        RnsPoly kb = rk.b[j].restrictedTo(qp);
        RnsPoly ka = rk.a[j].restrictedTo(qp);
        kb.mulEwInplace(rot);
        ka.mulEwInplace(rot);
        acc_b.addInplace(kb);
        acc_a.addInplace(ka);
    }
    acc_b.toCoeff();
    acc_a.toCoeff();
    RnsPoly ks_b = modDown(ctx, acc_b, level);
    RnsPoly ks_a = modDown(ctx, acc_a, level);
    ks_b.toEval();
    ks_a.toEval();

    Ciphertext out;
    out.level = ct.level;
    out.scale = ct.scale;
    out.b = applyAutomorphism(ct.b, g);
    out.b.addInplace(ks_b);
    out.a = std::move(ks_a);
    return out;
}

TEST(KernelHoisting, HoistedRotateMatchesOracleAndDecryptsLikeRotate)
{
    BackendScope backend_scope;
    const FheContext &ctx = smallContext();
    KeyGenerator keygen(ctx, 42);
    PublicKey pk = keygen.makePublicKey();
    SecretKey sk = keygen.secretKey();
    Evaluator eval(ctx, 7);

    const u64 slots = ctx.n() / 2;
    std::vector<double> v(slots);
    for (u64 i = 0; i < v.size(); ++i)
        v[i] = (i % 13) * 0.1 - 0.5;

    for (u32 level : {u32(2), ctx.maxLevel()}) {
        Ciphertext ct =
            eval.encrypt(eval.encoder().encodeReal(v, level), pk);
        auto digits = eval.hoistedDecompModUp(ct.a, ct.level);
        for (i64 r : {i64(1), i64(3), i64(7)}) {
            KswKey rk = keygen.makeRotationKey(r);
            Ciphertext want = hoistedRotateOracle(ctx, ct, r, rk);
            for (kernels::Backend b : availableBackends()) {
                kernels::setBackend(b);
                Ciphertext got = eval.hoistedRotate(ct, digits, r, rk);
                ASSERT_EQ(got.level, want.level);
                ASSERT_EQ(got.scale, want.scale);
                expectPolysEqual(got.b, want.b, "hoistedRotate b");
                expectPolysEqual(got.a, want.a, "hoistedRotate a");
            }
            // Functional equivalence with the eager rotation.
            auto dh = eval.encoder().decode(eval.decrypt(want, sk));
            auto de = eval.encoder().decode(
                eval.decrypt(eval.rotate(ct, r, rk), sk));
            for (u64 i = 0; i < slots; ++i)
                EXPECT_NEAR(dh[i].real(), de[i].real(), 2e-2)
                    << "level " << level << " r " << r << " slot " << i;
        }
    }
}

// ---------------------------------------------------------------------------
// Triple-hoisted BSGS.
// ---------------------------------------------------------------------------

struct BsgsState
{
    const FheContext &ctx;
    KeyGenerator keygen;
    PublicKey pk;
    Evaluator eval;

    BsgsState()
        : ctx(smallContext()), keygen(ctx, 31415), pk(keygen.makePublicKey()),
          eval(ctx, 13)
    {
    }

    BsgsKeys
    keysFor(u32 n1, u32 n2, RotStrategy strategy, u32 r_hyb)
    {
        BsgsKeys keys;
        for (i64 r : requiredRotations(n1, n2, strategy, r_hyb))
            keys.rot.emplace(r, keygen.makeRotationKey(r));
        return keys;
    }
};

BsgsState &
bsgsState()
{
    static BsgsState s;
    return s;
}

TEST(KernelTripleHoistedBsgs, RequiredRotationsAndCostMatchHoisting)
{
    EXPECT_EQ(requiredRotations(4, 2, RotStrategy::TripleHoisted, 0),
              requiredRotations(4, 2, RotStrategy::Hoisting, 0));
    auto cost = babyStepCost(8, RotStrategy::TripleHoisted, 0);
    EXPECT_EQ(cost.modUpDown, 1u);
    EXPECT_EQ(cost.distinctEvk, 7u);
}

TEST(KernelTripleHoistedBsgs, BabyStepsMatchOracleAndDecryptLikeHoisting)
{
    auto &s = bsgsState();
    const u32 n1 = 4;
    const u64 slots = s.ctx.n() / 2;
    std::vector<double> v(slots);
    for (u64 i = 0; i < v.size(); ++i)
        v[i] = (i % 11) * 0.2 - 1.0;
    auto ct = s.eval.encrypt(s.eval.encoder().encodeReal(v, 3), s.pk);

    auto keys = s.keysFor(n1, 1, RotStrategy::Hoisting, 0);
    auto eager = babySteps(s.eval, ct, n1, RotStrategy::Hoisting, 0, keys);
    auto got =
        babySteps(s.eval, ct, n1, RotStrategy::TripleHoisted, 0, keys);
    ASSERT_EQ(got.size(), eager.size());
    for (u32 i = 1; i < n1; ++i) {
        // Bit-for-bit against the unfused-primitive oracle...
        Ciphertext want =
            hoistedRotateOracle(s.ctx, ct, i, keys.rot.at(i));
        expectPolysEqual(got[i].b, want.b, "baby b");
        expectPolysEqual(got[i].a, want.a, "baby a");
        // ...and decrypt-equivalent to the eager rotation.
        auto dh = s.eval.encoder().decode(
            s.eval.decrypt(got[i], s.keygen.secretKey()));
        auto de = s.eval.encoder().decode(
            s.eval.decrypt(eager[i], s.keygen.secretKey()));
        for (u64 k = 0; k < slots; ++k)
            EXPECT_NEAR(dh[k].real(), de[k].real(), 2e-2)
                << "i=" << i << " slot " << k;
    }
}

/**
 * Same-math oracle for the triple-hoisted matvec, built from the unfused
 * seed primitives (modUpDigit + restrictedTo key copies + coefficient-
 * domain modDown) instead of the fused pipeline: same deferred-ModDown
 * dataflow, independently coded path. Bit-for-bit agreement checks the
 * production path's fused kernels AND its accumulation order at once.
 */
Ciphertext
tripleHoistedOracle(BsgsState &s,
                    const std::vector<std::vector<double>> &diagonals,
                    const Ciphertext &ct, u32 n1, u32 n2, BsgsKeys &keys)
{
    const FheContext &ctx = s.ctx;
    const Encoder &enc = s.eval.encoder();
    const u64 slots = ctx.n() / 2;

    // Baby steps: unfused per-digit ModUp of ct.a, permute, inner
    // product with restricted key copies, coefficient-domain ModDown.
    const u32 level = ct.level;
    const u32 beta = ctx.digitCount(level);
    auto qp = ctx.qpBasis(level);
    RnsPoly a_coeff = ct.a;
    a_coeff.toCoeff();
    std::vector<RnsPoly> digits;
    for (u32 j = 0; j < beta; ++j) {
        RnsPoly up = modUpDigit(ctx, a_coeff, j, level);
        up.toEval();
        digits.push_back(std::move(up));
    }

    auto innerProd = [&](const std::vector<RnsPoly> &ds, const KswKey &key) {
        RnsPoly acc_b(ctx, qp, Rep::Eval);
        RnsPoly acc_a(ctx, qp, Rep::Eval);
        for (u32 j = 0; j < beta; ++j) {
            RnsPoly kb = key.b[j].restrictedTo(qp);
            RnsPoly ka = key.a[j].restrictedTo(qp);
            kb.mulEwInplace(ds[j]);
            ka.mulEwInplace(ds[j]);
            acc_b.addInplace(kb);
            acc_a.addInplace(ka);
        }
        return std::make_pair(std::move(acc_b), std::move(acc_a));
    };
    auto modDownPair = [&](const RnsPoly &b, const RnsPoly &a) {
        RnsPoly bc = b;
        bc.toCoeff();
        RnsPoly ac = a;
        ac.toCoeff();
        RnsPoly db = modDown(ctx, bc, level);
        RnsPoly da = modDown(ctx, ac, level);
        db.toEval();
        da.toEval();
        return std::make_pair(std::move(db), std::move(da));
    };

    std::vector<Ciphertext> cts(n1);
    cts[0] = ct;
    for (u32 i = 1; i < n1; ++i) {
        const u64 g = galoisElementForRotation(i, ctx.n());
        std::vector<RnsPoly> rot;
        for (const RnsPoly &d : digits)
            rot.push_back(applyAutomorphism(d, g));
        auto [ip_b, ip_a] = innerProd(rot, keys.rot.at(i));
        auto [ks_b, ks_a] = modDownPair(ip_b, ip_a);
        cts[i].level = ct.level;
        cts[i].scale = ct.scale;
        cts[i].b = applyAutomorphism(ct.b, g);
        cts[i].b.addInplace(ks_b);
        cts[i].a = std::move(ks_a);
    }

    // Giant steps with the single deferred ModDown.
    bool have_acc = false;
    RnsPoly acc_b, acc_a;
    bool have_out = false;
    Ciphertext out;
    auto rotateRight = [&](const std::vector<double> &vec, u64 amount) {
        std::vector<double> r(vec.size());
        amount %= vec.size();
        for (u64 i = 0; i < vec.size(); ++i)
            r[(i + amount) % vec.size()] = vec[i];
        return r;
    };
    for (u32 j = 0; j < n2; ++j) {
        bool have_r = false;
        Ciphertext r;
        for (u32 i = 0; i < n1; ++i) {
            u64 d = static_cast<u64>(n1) * j + i;
            auto diag = rotateRight(diagonals[d], static_cast<u64>(n1) * j);
            (void)slots;
            Plaintext pt = enc.encodeReal(diag, cts[i].level);
            Ciphertext term = s.eval.mulPlain(cts[i], pt);
            if (!have_r) {
                r = std::move(term);
                have_r = true;
            } else {
                r = s.eval.add(r, term);
            }
        }
        if (j > 0) {
            const i64 stride = static_cast<i64>(n1) * j;
            const u64 g = galoisElementForRotation(stride, ctx.n());
            RnsPoly ra_coeff = r.a;
            ra_coeff.toCoeff();
            std::vector<RnsPoly> gds;
            for (u32 k = 0; k < beta; ++k) {
                RnsPoly up = modUpDigit(ctx, ra_coeff, k, level);
                up.toEval();
                gds.push_back(applyAutomorphism(up, g));
            }
            auto [ip_b, ip_a] = innerProd(gds, keys.rot.at(stride));
            if (!have_acc) {
                acc_b = std::move(ip_b);
                acc_a = std::move(ip_a);
                have_acc = true;
            } else {
                acc_b.addInplace(ip_b);
                acc_a.addInplace(ip_a);
            }
            r.b = applyAutomorphism(r.b, g);
            r.a = RnsPoly(ctx, ctx.qBasis(r.level), Rep::Eval);
        }
        if (!have_out) {
            out = std::move(r);
            have_out = true;
        } else {
            out = s.eval.add(out, r);
        }
    }
    if (have_acc) {
        auto [md_b, md_a] = modDownPair(acc_b, acc_a);
        out.b.addInplace(md_b);
        out.a.addInplace(md_a);
    }
    return s.eval.rescale(out);
}

TEST(KernelTripleHoistedBsgs, MatVecMatchesSameMathOracleBitForBit)
{
    BackendScope backend_scope;
    auto &s = bsgsState();
    const u32 n1 = 2, n2 = 2;
    const u64 dim = n1 * n2;
    Rng rng(9004);

    std::vector<std::vector<double>> m(dim, std::vector<double>(dim));
    std::vector<double> x(dim);
    for (auto &row : m)
        for (auto &e : row)
            e = rng.nextDouble() * 2 - 1;
    for (auto &e : x)
        e = rng.nextDouble() * 2 - 1;

    const u64 slots = s.ctx.n() / 2;
    std::vector<double> x_tiled(slots);
    for (u64 i = 0; i < slots; ++i)
        x_tiled[i] = x[i % dim];
    auto diags = matrixDiagonals(m, slots);

    auto keys = s.keysFor(n1, n2, RotStrategy::TripleHoisted, 0);
    auto ct = s.eval.encrypt(s.eval.encoder().encodeReal(x_tiled, 3), s.pk);

    Ciphertext want = tripleHoistedOracle(s, diags, ct, n1, n2, keys);
    for (u32 threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        for (kernels::Backend b : availableBackends()) {
            kernels::setBackend(b);
            Ciphertext got = ptMatVecMult(s.eval, ct, diags, n1, n2,
                                          RotStrategy::TripleHoisted, 0,
                                          keys);
            expectPolysEqual(got.b, want.b, "triple-hoisted matvec b");
            expectPolysEqual(got.a, want.a, "triple-hoisted matvec a");
        }
    }
    ThreadPool::setGlobalThreads(0);

    // And the deferred-ModDown result still decrypts to M·x within the
    // usual CKKS tolerance (the deferral shifts each coefficient by at
    // most n2-1, far below the scale).
    auto expect = matVecRef(m, x);
    auto got_dec =
        s.eval.encoder().decode(s.eval.decrypt(want, s.keygen.secretKey()));
    for (u64 i = 0; i < dim; ++i)
        EXPECT_NEAR(got_dec[i].real(), expect[i], 5e-2) << "slot " << i;
}

// ---------------------------------------------------------------------------
// Golden FNV limb-trace hashes: integer-domain flows only (no FP encode),
// so the constants are stable across platforms. The fused and unfused key
// switches and the hoisted inner product must land on the same hash.
// ---------------------------------------------------------------------------

TEST(KernelKsDataflow, GoldenLimbTraceHashes)
{
    BackendScope backend_scope;
    kernels::setBackend(kernels::Backend::Scalar);
    const FheContext &ctx = smallContext();
    KeyGenerator keygen(ctx, 42);
    KswKey rk = keygen.makeRotationKey(1);
    Evaluator eval(ctx, 7);
    Rng rng(8);

    const u32 level = ctx.maxLevel();
    RnsPoly d = randomPoly(ctx, ctx.qBasis(level), rng);

    auto hashPair = [](const std::pair<RnsPoly, RnsPoly> &p) {
        u64 h = 1469598103934665603ull;
        h = hashPoly(h, p.first);
        return hashPoly(h, p.second);
    };

    const u64 kGolden = 12148749097251079694ull;
    EXPECT_EQ(hashPair(eval.keySwitch(d, level, rk)), kGolden);
    EXPECT_EQ(hashPair(eval.keySwitchUnfused(d, level, rk)), kGolden);

    auto digits = eval.hoistedDecompModUp(d, level);
    auto [ip_b, ip_a] = eval.hoistedInnerProd(digits, rk);
    EXPECT_EQ(hashPair(modDownEvalPair(ctx, ip_b, ip_a, level)), kGolden);
}

}  // namespace
}  // namespace crophe::fhe
