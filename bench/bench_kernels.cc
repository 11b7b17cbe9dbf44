/**
 * @file
 * Tracked microbenchmarks for the kernel layer (DESIGN.md §10, §13):
 * forward and inverse NTT (single and batched), BConv, the fused
 * ModUp/ModDown pipelines, and the end-to-end key-switch, each measured
 * per backend against a "reference" baseline row. For the transforms the
 * reference is the retained seed kernel (referenceFwdNtt, the eager
 * per-butterfly scalar path); for the fused pipelines and the key switch
 * it is the unfused scalar flow, so the speedup column reports the
 * combined win of SIMD + fusion over the seed semantics.
 *
 * Flags:
 *   --kernel scalar|avx2|avx512|auto  restrict to one backend (+ baseline)
 *   --json <path>                     write BENCH_kernels.json-style output
 *   --smoke                           fast mode for CI (few iterations)
 *   --digest                          print FNV-1a output hashes, no timing
 *   --stats-out <path>                dump fhe.arena.* / autotune stats JSON
 *   --threads N                       size the process-wide pool
 *
 * --digest exists for the warm-vs-cold autotune CI check: its output is a
 * pure function of the kernel results (which are bit-identical whatever
 * tile the autotuner picks), so two runs — one that tunes, one that loads
 * the persisted table — must produce byte-identical stdout.
 *
 * Every measurement runs the same bit-identical code paths the library
 * uses; the differential tests in tests/fhe/test_kernels.cc are the
 * correctness side of this file.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/common_flags.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "fhe/automorphism.h"
#include "fhe/bconv.h"
#include "fhe/bsgs.h"
#include "fhe/ckks.h"
#include "fhe/kernels/autotune.h"
#include "fhe/kernels/kernels.h"
#include "fhe/ntt.h"
#include "fhe/primes.h"
#include "telemetry/arena_stats.h"
#include "telemetry/stats_registry.h"

using namespace crophe;
using namespace crophe::fhe;

namespace {

bool g_smoke = false;
bool g_digest = false;

/** Median-of-batches wall time per op, in nanoseconds. */
double
timeOp(const std::function<void()> &op)
{
    using clock = std::chrono::steady_clock;
    op();  // warm caches, resolve dispatch, fill the arena

    const double min_batch_ns = g_smoke ? 1e5 : 1e7;
    const int batches = g_smoke ? 3 : 7;

    // Scale the iteration count so one batch is long enough to time.
    u64 iters = 1;
    for (;;) {
        auto t0 = clock::now();
        for (u64 i = 0; i < iters; ++i)
            op();
        double ns = std::chrono::duration<double, std::nano>(clock::now() - t0)
                        .count();
        if (ns >= min_batch_ns || iters >= (1ull << 20))
            break;
        iters *= 2;
    }

    double best = 1e300;
    for (int b = 0; b < batches; ++b) {
        auto t0 = clock::now();
        for (u64 i = 0; i < iters; ++i)
            op();
        double ns = std::chrono::duration<double, std::nano>(clock::now() - t0)
                        .count();
        best = std::min(best, ns / static_cast<double>(iters));
    }
    return best;
}

struct Result
{
    std::string bench;    ///< fwd_ntt | inv_ntt | bconv | mod_up | ...
    std::string backend;  ///< reference | scalar | avx2 | avx512
    u64 n;
    u64 limbs;  ///< batch size / limb count; 0 when not applicable
    double ns_per_op;
    double speedup;  ///< vs the "reference" row of the same (bench, n, limbs)
};

std::vector<Result> g_results;

void
record(const std::string &bench, const std::string &backend, u64 n, u64 limbs,
       double ns)
{
    double base = 0;
    for (const Result &r : g_results)
        if (r.bench == bench && r.n == n && r.limbs == limbs &&
            r.backend == "reference")
            base = r.ns_per_op;
    double speedup = base > 0 ? base / ns : 1.0;
    g_results.push_back({bench, backend, n, limbs, ns, speedup});
    std::printf("  %-14s  %-9s  n=%-6llu limbs=%-2llu  %12.1f ns/op"
                "  speedup %5.2fx\n",
                bench.c_str(), backend.c_str(),
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(limbs), ns, speedup);
}

std::vector<kernels::Backend>
selectedBackends(const std::string &only)
{
    std::vector<kernels::Backend> all = {kernels::Backend::Scalar,
                                         kernels::Backend::Avx2,
                                         kernels::Backend::Avx512};
    // An explicit --kernel restricts the sweep to that backend; "auto"
    // resolves to the widest available one. Unknown spellings throw.
    if (!only.empty()) {
        kernels::Backend want = kernels::parseBackend(only);
        if (!kernels::available(want))
            throw RecoverableError(std::string("backend '") +
                                   kernels::backendName(want) +
                                   "' is not available on this CPU");
        return {want};
    }
    std::vector<kernels::Backend> out;
    for (kernels::Backend b : all)
        if (kernels::available(b))
            out.push_back(b);
    return out;
}

void
benchNtt(const std::vector<kernels::Backend> &backends)
{
    std::printf("\n===== NTT kernels =====\n");
    Rng rng(123);
    for (u64 n : {u64(1) << 14, u64(1) << 15, u64(1) << 16}) {
        u64 q = generateNttPrimes(59, n, 1)[0];
        Modulus mod(q);
        NttTables tables(n, mod);
        kernels::NttView fwd = tables.forwardView();
        kernels::NttView inv = tables.inverseView();

        std::vector<u64> base(n);
        for (auto &x : base)
            x = rng.nextBounded(q);
        std::vector<u64> buf = base;

        record("fwd_ntt", "reference", n, 1,
               timeOp([&] { kernels::referenceFwdNtt(buf.data(), fwd); }));
        record("inv_ntt", "reference", n, 1,
               timeOp([&] { kernels::referenceInvNtt(buf.data(), inv); }));

        for (kernels::Backend b : backends) {
            kernels::setBackend(b);
            const kernels::KernelTable &kt = kernels::table();
            buf = base;
            record("fwd_ntt", kt.name, n, 1,
                   timeOp([&] { kt.fwdNtt(buf.data(), fwd); }));
            record("inv_ntt", kt.name, n, 1,
                   timeOp([&] { kt.invNtt(buf.data(), inv); }));
        }
    }
}

void
benchNttBatch(const std::vector<kernels::Backend> &backends)
{
    std::printf("\n===== Batched NTT (8 limbs, autotuned tile) =====\n");
    const u64 n = u64(1) << 14;
    const u64 batch = 8;
    u64 q = generateNttPrimes(59, n, 1)[0];
    Modulus mod(q);
    NttTables tables(n, mod);

    Rng rng(124);
    std::vector<std::vector<u64>> data(batch, std::vector<u64>(n));
    std::vector<u64 *> polys(batch);
    for (u64 i = 0; i < batch; ++i) {
        for (auto &x : data[i])
            x = rng.nextBounded(q);
        polys[i] = data[i].data();
    }

    kernels::NttView fwd = tables.forwardView();
    kernels::NttView inv = tables.inverseView();
    record("fwd_ntt_batch", "reference", n, batch, timeOp([&] {
               for (u64 i = 0; i < batch; ++i)
                   kernels::referenceFwdNtt(polys[i], fwd);
           }));
    record("inv_ntt_batch", "reference", n, batch, timeOp([&] {
               for (u64 i = 0; i < batch; ++i)
                   kernels::referenceInvNtt(polys[i], inv);
           }));
    for (kernels::Backend b : backends) {
        kernels::setBackend(b);
        const char *name = kernels::table().name;
        record("fwd_ntt_batch", name, n, batch,
               timeOp([&] { tables.forwardBatched(polys.data(), batch); }));
        record("inv_ntt_batch", name, n, batch,
               timeOp([&] { tables.inverseBatched(polys.data(), batch); }));
    }
}

void
benchBconv(const std::vector<kernels::Backend> &backends)
{
    std::printf("\n===== BConv (RNS base conversion) =====\n");
    for (u32 levels : {4u, 8u}) {
        FheContextParams p;
        p.n = 1 << 14;
        p.levels = levels;
        p.alpha = 2;
        FheContext ctx(p);
        Rng rng(321);
        RnsPoly in(ctx, ctx.qBasis(levels), Rep::Coeff);
        in.uniformRandom(rng);
        BaseConverter conv(ctx, ctx.qBasis(levels), ctx.pBasis());
        u64 limbs = in.limbCount();

        // The seed had no separate BConv kernel; scalar is the baseline.
        kernels::setBackend(kernels::Backend::Scalar);
        record("bconv", "reference", ctx.n(), limbs, timeOp([&] {
                   RnsPoly out = conv.convert(in);
                   (void)out;
               }));
        for (kernels::Backend b : backends) {
            kernels::setBackend(b);
            record("bconv", kernels::table().name, ctx.n(), limbs, timeOp([&] {
                       RnsPoly out = conv.convert(in);
                       (void)out;
                   }));
        }
    }
}

/** The shared key-switch fixture: context, keys, a fresh ciphertext. */
struct KsFixture
{
    FheContext ctx;
    KeyGenerator keygen;
    PublicKey pk;
    KswKey rk1;
    Evaluator eval;
    Ciphertext ct;

    explicit KsFixture(u64 n, u32 levels = 4)
        : ctx([&] {
              FheContextParams p;
              p.n = n;
              p.levels = levels;
              p.alpha = 2;
              return p;
          }()),
          keygen(ctx, 42),
          pk(keygen.makePublicKey()),
          rk1(keygen.makeRotationKey(1)),
          eval(ctx, 7)
    {
        Rng rng(8);
        std::vector<double> v(ctx.n() / 2);
        for (auto &x : v)
            x = rng.nextDouble() - 0.5;
        Plaintext pt = eval.encoder().encodeReal(v, ctx.maxLevel());
        ct = eval.encrypt(pt, pk);
    }

    /** Evaluator::rotate with the unfused reference key switch. */
    Ciphertext
    rotateUnfused() const
    {
        u64 g = galoisElementForRotation(1, ctx.n());
        RnsPoly b_rot = applyAutomorphism(ct.b, g);
        RnsPoly a_rot = applyAutomorphism(ct.a, g);
        auto [ks_b, ks_a] = eval.keySwitchUnfused(a_rot, ct.level, rk1);
        Ciphertext out;
        out.level = ct.level;
        out.scale = ct.scale;
        out.b = std::move(b_rot);
        out.b.addInplace(ks_b);
        out.a = std::move(ks_a);
        return out;
    }
};

void
benchModUpDown(const std::vector<kernels::Backend> &backends)
{
    std::printf("\n===== Fused ModUp / ModDown pipelines =====\n");
    KsFixture fx(u64(1) << 14);
    const FheContext &ctx = fx.ctx;
    const u32 level = fx.ct.level;
    RnsPoly d = fx.ct.a;
    RnsPoly d_coeff = d;
    d_coeff.toCoeff();
    u64 limbs = d.limbCount();

    // ModUp of digit 0, unfused (Coeff in, whole-basis NTT out) vs fused
    // (Eval in, only converted limbs transformed).
    kernels::setBackend(kernels::Backend::Scalar);
    record("mod_up", "reference", ctx.n(), limbs, timeOp([&] {
               RnsPoly up = modUpDigit(ctx, d_coeff, 0, level);
               up.toEval();
           }));
    for (kernels::Backend b : backends) {
        kernels::setBackend(b);
        record("mod_up", kernels::table().name, ctx.n(), limbs, timeOp([&] {
                   RnsPoly up = fusedModUpEval(ctx, d, d_coeff, 0, level);
                   (void)up;
               }));
    }

    // ModDown of an accumulator pair, unfused (full toCoeff / toEval
    // round trips) vs the Eval-domain pair-batched pipeline.
    auto qp = ctx.qpBasis(level);
    RnsPoly acc_b(ctx, qp, Rep::Eval);
    RnsPoly acc_a(ctx, qp, Rep::Eval);
    Rng rng(9);
    acc_b.uniformRandom(rng);
    acc_a.uniformRandom(rng);

    kernels::setBackend(kernels::Backend::Scalar);
    record("mod_down", "reference", ctx.n(), limbs, timeOp([&] {
               RnsPoly cb = acc_b;
               RnsPoly ca = acc_a;
               cb.toCoeff();
               ca.toCoeff();
               RnsPoly ob = modDown(ctx, cb, level);
               RnsPoly oa = modDown(ctx, ca, level);
               ob.toEval();
               oa.toEval();
           }));
    for (kernels::Backend b : backends) {
        kernels::setBackend(b);
        record("mod_down", kernels::table().name, ctx.n(), limbs, timeOp([&] {
                   auto out = modDownEvalPair(ctx, acc_b, acc_a, level);
                   (void)out;
               }));
    }
}

void
benchKeySwitch(const std::vector<kernels::Backend> &backends)
{
    std::printf("\n===== Key switch (rotate, end to end) =====\n");
    KsFixture fx(u64(1) << 14);
    u64 limbs = fx.ct.a.limbCount();

    // The reference row is the seed semantics end to end: scalar kernels
    // and the unfused Decomp→ModUp→KSKInP→ModDown flow, so backend rows
    // report the combined SIMD + fusion + batching speedup.
    kernels::setBackend(kernels::Backend::Scalar);
    record("key_switch", "reference", fx.ctx.n(), limbs, timeOp([&] {
               Ciphertext out = fx.rotateUnfused();
               (void)out;
           }));
    for (kernels::Backend b : backends) {
        kernels::setBackend(b);
        record("key_switch", kernels::table().name, fx.ctx.n(), limbs,
               timeOp([&] {
                   Ciphertext out = fx.eval.rotate(fx.ct, 1, fx.rk1);
                   (void)out;
               }));
    }
}

void
benchBsgsMatVec(const std::vector<kernels::Backend> &backends)
{
    std::printf("\n===== BSGS PtMatVecMult (rotation strategies) =====\n");
    // The sweep axis here is the rotation strategy, not the backend: all
    // rows run on the widest selected backend, and the reference row is
    // the Min-KS chain (the ARK-style baseline strategy).
    const u64 n = u64(1) << 13;
    KsFixture fx(n);
    const u32 n1 = 8, n2 = 8;
    const u64 s = n1 * n2;
    Rng rng(17);
    std::vector<std::vector<double>> m(s, std::vector<double>(s));
    for (auto &row : m)
        for (auto &x : row)
            x = rng.nextDouble() - 0.5;
    auto diagonals = matrixDiagonals(m, fx.ctx.n() / 2);

    const struct
    {
        RotStrategy strategy;
        u32 rHyb;
        const char *row;
    } kStrategies[] = {
        {RotStrategy::MinKs, 1, "reference"},
        {RotStrategy::Hoisting, 1, "hoisting"},
        {RotStrategy::Hybrid, 4, "hybrid_r4"},
        {RotStrategy::TripleHoisted, 1, "triple"},
    };
    kernels::setBackend(backends.back());
    for (const auto &v : kStrategies) {
        BsgsKeys keys;
        for (i64 r : requiredRotations(n1, n2, v.strategy, v.rHyb))
            keys.rot.emplace(r, fx.keygen.makeRotationKey(r));
        record("bsgs_matvec", v.row, fx.ctx.n(), n1, timeOp([&] {
                   Ciphertext out =
                       ptMatVecMult(fx.eval, fx.ct, diagonals, n1, n2,
                                    v.strategy, v.rHyb, keys);
                   (void)out;
               }));
    }
}

/** FNV-1a over a span of words (matches the test suite's helper). */
u64
fnv1a(u64 h, const u64 *p, u64 n)
{
    for (u64 i = 0; i < n; ++i) {
        u64 x = p[i];
        for (int b = 0; b < 8; ++b) {
            h ^= (x >> (8 * b)) & 0xff;
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

/**
 * Deterministic digest mode: run each pipeline once per backend and
 * print output hashes. No timings, no tile dependence — byte-identical
 * stdout whether the autotuner measured or loaded its table.
 */
void
runDigest(const std::vector<kernels::Backend> &backends)
{
    const u64 n = u64(1) << 12;
    KsFixture fx(n);
    const FheContext &ctx = fx.ctx;
    RnsPoly d = fx.ct.a;
    RnsPoly d_coeff = d;
    d_coeff.toCoeff();

    for (kernels::Backend b : backends) {
        kernels::setBackend(b);
        const char *name = kernels::backendName(b);

        // Batched transforms of 6 limb rows of one poly basis.
        RnsPoly poly(ctx, ctx.qpBasis(ctx.maxLevel()), Rep::Coeff);
        Rng rng(11);
        poly.uniformRandom(rng);
        u64 q0 = poly.mod(0).value();
        NttTables tables(n, Modulus(q0));
        std::vector<std::vector<u64>> rows(6);
        std::vector<u64 *> ptrs(6);
        Rng rng2(12);
        for (u32 i = 0; i < 6; ++i) {
            rows[i].resize(n);
            for (auto &x : rows[i])
                x = rng2.nextBounded(q0);
            ptrs[i] = rows[i].data();
        }
        tables.forwardBatched(ptrs.data(), 6);
        u64 h = 1469598103934665603ull;
        for (u32 i = 0; i < 6; ++i)
            h = fnv1a(h, ptrs[i], n);
        std::printf("digest ntt_batch %s %016llx\n", name,
                    static_cast<unsigned long long>(h));
        tables.inverseBatched(ptrs.data(), 6);
        h = 1469598103934665603ull;
        for (u32 i = 0; i < 6; ++i)
            h = fnv1a(h, ptrs[i], n);
        std::printf("digest ntt_batch_rt %s %016llx\n", name,
                    static_cast<unsigned long long>(h));

        // Fused pipelines and the end-to-end key switch.
        RnsPoly up = fusedModUpEval(ctx, d, d_coeff, 0, fx.ct.level);
        std::printf("digest mod_up_fused %s %016llx\n", name,
                    static_cast<unsigned long long>(hashPoly(up)));
        Ciphertext rot = fx.eval.rotate(fx.ct, 1, fx.rk1);
        std::printf("digest key_switch %s %016llx%016llx\n", name,
                    static_cast<unsigned long long>(hashPoly(rot.b)),
                    static_cast<unsigned long long>(hashPoly(rot.a)));
        Ciphertext rotu = fx.rotateUnfused();
        std::printf("digest key_switch_unfused %s %016llx%016llx\n", name,
                    static_cast<unsigned long long>(hashPoly(rotu.b)),
                    static_cast<unsigned long long>(hashPoly(rotu.a)));

        // Triple-hoisted BSGS matvec: not bit-identical to the other
        // strategies (hoisting lift ambiguity), but deterministic, so its
        // own hash still pins warm-vs-cold and thread-count invariance.
        {
            const u32 n1 = 4, n2 = 4;
            const u64 s = n1 * n2;
            Rng mrng(17);
            std::vector<std::vector<double>> m(s, std::vector<double>(s));
            for (auto &row : m)
                for (auto &x : row)
                    x = mrng.nextDouble() - 0.5;
            auto diagonals = matrixDiagonals(m, fx.ctx.n() / 2);
            BsgsKeys keys;
            for (i64 r : requiredRotations(n1, n2,
                                           RotStrategy::TripleHoisted, 1))
                keys.rot.emplace(r, fx.keygen.makeRotationKey(r));
            Ciphertext mv =
                ptMatVecMult(fx.eval, fx.ct, diagonals, n1, n2,
                             RotStrategy::TripleHoisted, 1, keys);
            std::printf("digest bsgs_triple %s %016llx%016llx\n", name,
                        static_cast<unsigned long long>(hashPoly(mv.b)),
                        static_cast<unsigned long long>(hashPoly(mv.a)));
        }
    }
}

void
writeJson(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_kernels\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n", g_smoke ? "true" : "false");
    std::fprintf(f, "  \"threads\": %u,\n", ThreadPool::globalThreads());
    std::fprintf(f, "  \"results\": [\n");
    for (size_t i = 0; i < g_results.size(); ++i) {
        const Result &r = g_results[i];
        std::fprintf(f,
                     "    {\"bench\": \"%s\", \"backend\": \"%s\", "
                     "\"n\": %llu, \"limbs\": %llu, "
                     "\"ns_per_op\": %.1f, \"speedup_vs_reference\": %.3f}%s\n",
                     r.bench.c_str(), r.backend.c_str(),
                     static_cast<unsigned long long>(r.n),
                     static_cast<unsigned long long>(r.limbs), r.ns_per_op,
                     r.speedup, i + 1 < g_results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
}

void
writeStats(const std::string &path)
{
    telemetry::StatsRegistry registry;
    telemetry::registerArenaStats(&registry);
    const kernels::AutotuneStats &at = kernels::autotuner().stats();
    registry.counter("fhe.autotune.tuned", "autotune keys measured")
        .set(at.tuned);
    registry.counter("fhe.autotune.memoHits", "autotune memoized answers")
        .set(at.memoHits);
    registry.counter("fhe.autotune.diskLoaded", "autotune entries from disk")
        .set(at.diskLoaded);
    registry.counter("fhe.autotune.diskRejects", "autotune tables rejected")
        .set(at.diskRejects);
    registry.counter("fhe.autotune.diskWrites", "autotune tables written")
        .set(at.diskWrites);
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return;
    }
    registry.dumpJson(os);
}

int
run(int argc, char **argv)
{
    cli::FlagParser parser(
        "Tracked kernel-layer microbenchmarks (NTT, BConv, fused "
        "ModUp/ModDown, key switch).");
    cli::CommonFlags common;
    common.registerInto(parser, cli::CommonFlags::kThreads |
                                    cli::CommonFlags::kKernel |
                                    cli::CommonFlags::kStatsOut);
    std::string json_path;
    parser.addString("--json", &json_path,
                     "write BENCH_kernels.json-style results here", "FILE");
    parser.addBool("--smoke", &g_smoke, "fast mode for CI (few iterations)");
    parser.addBool("--digest", &g_digest,
                   "print deterministic output hashes instead of timings");
    if (!parser.parse(argc, argv))
        return 1;
    // --kernel selects the sweep here (see selectedBackends); the
    // process-wide backend is set per measurement, so skip apply().
    std::vector<kernels::Backend> backends =
        selectedBackends(common.kernelName);

    if (g_digest) {
        runDigest(backends);
    } else {
        std::printf("bench_kernels: backends:");
        for (kernels::Backend b : backends)
            std::printf(" %s", kernels::backendName(b));
        std::printf("%s\n", g_smoke ? " (smoke)" : "");

        benchNtt(backends);
        benchNttBatch(backends);
        benchBconv(backends);
        benchModUpDown(backends);
        benchKeySwitch(backends);
        benchBsgsMatVec(backends);

        if (!json_path.empty())
            writeJson(json_path);
    }
    if (!common.statsOut.empty())
        writeStats(common.statsOut);
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const RecoverableError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
