/**
 * @file
 * google-benchmark kernels for the functional CKKS layer: encode,
 * encrypt, HAdd, PMult, HMult (+relinearization), rescale and HRot on a
 * compact but complete context — plus the four key-switch dataflows and
 * the BSGS PtMatVecMult under each rotation strategy, each row reporting
 * its measured NTT limb-transform count (DESIGN.md §15).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/cli.h"
#include "common/common_flags.h"
#include "common/error.h"
#include "common/rng.h"
#include "fhe/bsgs.h"
#include "fhe/ckks.h"
#include "fhe/ntt.h"

using namespace crophe;
using namespace crophe::fhe;

namespace {

struct Bench
{
    FheContext ctx;
    KeyGenerator keygen;
    PublicKey pk;
    KswKey rlk;
    KswKey rk1;
    Evaluator eval;
    Ciphertext ct0;
    Ciphertext ct1;
    Plaintext pt;

    static FheContextParams
    params()
    {
        FheContextParams p;
        p.n = 1 << 12;
        p.levels = 4;
        p.alpha = 2;
        return p;
    }

    Bench()
        : ctx(params()), keygen(ctx, 42), pk(keygen.makePublicKey()),
          rlk(keygen.makeRelinKey()), rk1(keygen.makeRotationKey(1)),
          eval(ctx, 7)
    {
        Rng rng(8);
        std::vector<double> v(ctx.n() / 2);
        for (auto &x : v)
            x = rng.nextDouble() - 0.5;
        pt = eval.encoder().encodeReal(v, ctx.maxLevel());
        ct0 = eval.encrypt(pt, pk);
        ct1 = eval.encrypt(pt, pk);
    }
};

Bench &
fixture()
{
    static Bench b;
    return b;
}

void
BM_Encode(benchmark::State &state)
{
    auto &b = fixture();
    std::vector<double> v(b.ctx.n() / 2, 0.25);
    for (auto _ : state) {
        auto p = b.eval.encoder().encodeReal(v, 2);
        benchmark::DoNotOptimize(p.scale);
    }
}
BENCHMARK(BM_Encode);

void
BM_Encrypt(benchmark::State &state)
{
    auto &b = fixture();
    for (auto _ : state) {
        auto c = b.eval.encrypt(b.pt, b.pk);
        benchmark::DoNotOptimize(c.scale);
    }
}
BENCHMARK(BM_Encrypt);

void
BM_HAdd(benchmark::State &state)
{
    auto &b = fixture();
    for (auto _ : state) {
        auto c = b.eval.add(b.ct0, b.ct1);
        benchmark::DoNotOptimize(c.scale);
    }
}
BENCHMARK(BM_HAdd);

void
BM_PMult(benchmark::State &state)
{
    auto &b = fixture();
    for (auto _ : state) {
        auto c = b.eval.mulPlain(b.ct0, b.pt);
        benchmark::DoNotOptimize(c.scale);
    }
}
BENCHMARK(BM_PMult);

void
BM_HMultRelin(benchmark::State &state)
{
    auto &b = fixture();
    for (auto _ : state) {
        auto c = b.eval.mul(b.ct0, b.ct1, b.rlk);
        benchmark::DoNotOptimize(c.scale);
    }
}
BENCHMARK(BM_HMultRelin);

void
BM_Rescale(benchmark::State &state)
{
    auto &b = fixture();
    for (auto _ : state) {
        auto c = b.eval.rescale(b.ct0);
        benchmark::DoNotOptimize(c.scale);
    }
}
BENCHMARK(BM_Rescale);

/** HRot; ntt_limbs = measured transforms per iteration. */
void
BM_HRot(benchmark::State &state)
{
    auto &b = fixture();
    u64 limbs0 = nttLimbTransforms();
    for (auto _ : state) {
        auto c = b.eval.rotate(b.ct0, 1, b.rk1);
        benchmark::DoNotOptimize(c.scale);
    }
    u64 limbs = nttLimbTransforms() - limbs0;
    state.counters["ntt_limbs"] = benchmark::Counter(
        static_cast<double>(limbs) /
        static_cast<double>(std::max<i64>(1, state.iterations())));
}
BENCHMARK(BM_HRot);

/** BSGS PtMatVecMult (Algorithm 1) at matching (n1, n2) under each
 *  rotation strategy. TripleHoisted must show fewer ntt_limbs and less
 *  time than Hybrid: its giant steps defer (n2-1) ModDowns into one. */
void
BM_BsgsMatVec(benchmark::State &state, RotStrategy strategy, u32 r_hyb)
{
    auto &b = fixture();
    const u32 n1 = 8, n2 = 8;
    const u64 s = n1 * n2;
    Rng rng(17);
    std::vector<std::vector<double>> m(s, std::vector<double>(s));
    for (auto &row : m)
        for (auto &x : row)
            x = rng.nextDouble() - 0.5;
    auto diagonals = matrixDiagonals(m, b.ctx.n() / 2);
    BsgsKeys keys;
    for (i64 r : requiredRotations(n1, n2, strategy, r_hyb))
        keys.rot.emplace(r, b.keygen.makeRotationKey(r));
    u64 limbs0 = nttLimbTransforms();
    for (auto _ : state) {
        auto c = ptMatVecMult(b.eval, b.ct0, diagonals, n1, n2, strategy,
                              r_hyb, keys);
        benchmark::DoNotOptimize(c.scale);
    }
    u64 limbs = nttLimbTransforms() - limbs0;
    state.counters["ntt_limbs"] = benchmark::Counter(
        static_cast<double>(limbs) /
        static_cast<double>(std::max<i64>(1, state.iterations())));
}
BENCHMARK_CAPTURE(BM_BsgsMatVec, minks, RotStrategy::MinKs, 1);
BENCHMARK_CAPTURE(BM_BsgsMatVec, hoisting, RotStrategy::Hoisting, 1);
BENCHMARK_CAPTURE(BM_BsgsMatVec, hybrid_r4, RotStrategy::Hybrid, 4);
BENCHMARK_CAPTURE(BM_BsgsMatVec, triple, RotStrategy::TripleHoisted, 1);

}  // namespace

int
main(int argc, char **argv)
{
    // google-benchmark consumes its own --benchmark_* flags first; the
    // remainder goes through the shared CommonFlags surface so
    // --threads / --kernel work like in every other harness.
    benchmark::Initialize(&argc, argv);
    cli::FlagParser flags("CKKS operation kernels (google-benchmark).");
    cli::CommonFlags common;
    common.registerInto(flags, cli::CommonFlags::kThreads |
                                   cli::CommonFlags::kKernel);
    if (!flags.parse(argc, argv))
        return 1;
    try {
        common.apply();
    } catch (const RecoverableError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
