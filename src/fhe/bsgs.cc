#include "fhe/bsgs.h"

#include <algorithm>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/parallel.h"
#include "fhe/automorphism.h"
#include "fhe/bconv.h"

namespace crophe::fhe {

std::vector<i64>
requiredRotations(u32 n1, u32 n2, RotStrategy strategy, u32 r_hyb)
{
    std::vector<i64> rots;
    switch (strategy) {
      case RotStrategy::MinKs:
        rots.push_back(1);
        break;
      case RotStrategy::Hoisting:
      case RotStrategy::TripleHoisted:
        // TripleHoisted reuses Hoisting's key set: one evk per baby-step
        // distance (the extra hoisting lives in the dataflow, not the keys).
        for (u32 i = 1; i < n1; ++i)
            rots.push_back(i);
        break;
      case RotStrategy::Hybrid: {
        CROPHE_ASSERT(r_hyb >= 1 && r_hyb <= n1, "bad r_hyb ", r_hyb);
        u32 coarse = ceilDiv(n1, r_hyb) - 1;
        if (coarse > 0)
            rots.push_back(r_hyb);
        for (u32 f = 1; f < r_hyb; ++f)
            rots.push_back(f);
        break;
      }
    }
    // Giant steps always need strides n1·j, j = 1…n2-1.
    for (u32 j = 1; j < n2; ++j)
        rots.push_back(static_cast<i64>(n1) * j);
    std::sort(rots.begin(), rots.end());
    rots.erase(std::unique(rots.begin(), rots.end()), rots.end());
    return rots;
}

std::vector<Ciphertext>
babySteps(const Evaluator &eval, const Ciphertext &ct, u32 n1,
          RotStrategy strategy, u32 r_hyb, const BsgsKeys &keys)
{
    std::vector<Ciphertext> out(n1);
    out[0] = ct;
    switch (strategy) {
      case RotStrategy::MinKs: {
        const KswKey &k1 = keys.rot.at(1);
        for (u32 i = 1; i < n1; ++i)
            out[i] = eval.rotate(out[i - 1], 1, k1);
        break;
      }
      case RotStrategy::Hoisting: {
        // Functionally, hoisting produces each rotation from the original
        // ciphertext; the shared Decomp/ModUp is a cost-level property that
        // the scheduler's graphs model (graph::RotMode::Hoisting).
        for (u32 i = 1; i < n1; ++i)
            out[i] = eval.rotate(ct, i, keys.rot.at(i));
        break;
      }
      case RotStrategy::TripleHoisted: {
        // Genuinely shared Decomp/ModUp: ct.a is decomposed and raised to
        // the extended basis once, then every baby-step rotation permutes
        // the precomputed digits (decrypt-equivalent to eval.rotate; the
        // permuted-lift difference is absorbed by key-switch noise).
        auto digits = eval.hoistedDecompModUp(ct.a, ct.level);
        for (u32 i = 1; i < n1; ++i)
            out[i] = eval.hoistedRotate(ct, digits, i, keys.rot.at(i));
        break;
      }
      case RotStrategy::Hybrid: {
        CROPHE_ASSERT(r_hyb >= 1 && r_hyb <= n1, "bad r_hyb ", r_hyb);
        // Coarse Min-KS chain at stride r_hyb...
        for (u32 c = r_hyb; c < n1; c += r_hyb)
            out[c] = eval.rotate(out[c - r_hyb], r_hyb, keys.rot.at(r_hyb));
        // ...then Hoisting fine steps within each coarse group.
        for (u32 c = 0; c < n1; c += r_hyb) {
            for (u32 f = 1; f < r_hyb && c + f < n1; ++f)
                out[c + f] = eval.rotate(out[c], f, keys.rot.at(f));
        }
        break;
      }
    }
    return out;
}

std::vector<std::vector<double>>
matrixDiagonals(const std::vector<std::vector<double>> &m, u64 slots)
{
    const u64 s = m.size();
    CROPHE_ASSERT(slots % s == 0, "matrix size must divide slot count");
    std::vector<std::vector<double>> diags(s, std::vector<double>(slots));
    for (u64 d = 0; d < s; ++d) {
        for (u64 i = 0; i < slots; ++i)
            diags[d][i] = m[i % s][(i + d) % s];
    }
    return diags;
}

std::vector<double>
matVecRef(const std::vector<std::vector<double>> &m,
          const std::vector<double> &x)
{
    const u64 s = m.size();
    std::vector<double> y(s, 0.0);
    for (u64 i = 0; i < s; ++i)
        for (u64 j = 0; j < s; ++j)
            y[i] += m[i][j] * x[j];
    return y;
}

namespace {

/** Cyclic right-shift of a slot vector by @p amount (i.e., Rot_{-amount}). */
std::vector<double>
rotateRight(const std::vector<double> &v, u64 amount)
{
    const u64 n = v.size();
    amount %= n;
    std::vector<double> out(n);
    for (u64 i = 0; i < n; ++i)
        out[(i + amount) % n] = v[i];
    return out;
}

}  // namespace

Ciphertext
ptMatVecMult(const Evaluator &eval, const Ciphertext &ct,
             const std::vector<std::vector<double>> &diagonals, u32 n1,
             u32 n2, RotStrategy strategy, u32 r_hyb, const BsgsKeys &keys)
{
    const u64 s = static_cast<u64>(n1) * n2;
    CROPHE_ASSERT(diagonals.size() == s, "need one diagonal per offset");
    const Encoder &enc = eval.encoder();

    auto cts = babySteps(eval, ct, n1, strategy, r_hyb, keys);

    const bool deferred = strategy == RotStrategy::TripleHoisted;
    const FheContext &ctx = eval.context();

    // TripleHoisted: the giant-step key-switch inner products accumulate
    // here, in the extended qp basis, so that ModDown runs once at the
    // end instead of once per giant step (n2-1 ModDowns → 1).
    bool have_acc = false;
    RnsPoly acc_b, acc_a;

    bool have_out = false;
    Ciphertext out;
    for (u32 j = 0; j < n2; ++j) {
        bool have_r = false;
        Ciphertext r;
        for (u32 i = 0; i < n1; ++i) {
            u64 d = static_cast<u64>(n1) * j + i;
            auto diag = rotateRight(diagonals[d], static_cast<u64>(n1) * j);
            Plaintext pt = enc.encodeReal(diag, cts[i].level);
            Ciphertext term = eval.mulPlain(cts[i], pt);
            if (!have_r) {
                r = std::move(term);
                have_r = true;
            } else {
                eval.addInplace(r, term);
            }
        }
        if (j > 0) {
            const i64 stride = static_cast<i64>(n1) * j;
            const KswKey &gk = keys.rot.at(stride);
            if (deferred) {
                const u64 g = galoisElementForRotation(stride, ctx.n());
                auto digits = eval.hoistedDecompModUp(r.a, r.level);
                std::vector<RnsPoly> rotated(digits.size());
                parallelFor(0, digits.size(), [&](u64 k) {
                    rotated[k] = applyAutomorphism(digits[k], g);
                });
                auto [ip_b, ip_a] = eval.hoistedInnerProd(rotated, gk);
                if (!have_acc) {
                    acc_b = std::move(ip_b);
                    acc_a = std::move(ip_a);
                    have_acc = true;
                } else {
                    acc_b.addInplace(ip_b);
                    acc_a.addInplace(ip_a);
                }
                // Only ψ(r.b) enters the running sum now; the key-switch
                // (b, a) contribution arrives after the hoisted ModDown.
                r.b = applyAutomorphism(r.b, g);
                r.a = RnsPoly(ctx, ctx.qBasis(r.level), Rep::Eval);
            } else {
                r = eval.rotate(r, stride, gk);
            }
        }
        if (!have_out) {
            out = std::move(r);
            have_out = true;
        } else {
            eval.addInplace(out, r);
        }
    }
    if (have_acc) {
        auto [md_b, md_a] = modDownEvalPair(ctx, acc_b, acc_a, out.level);
        out.b.addInplace(md_b);
        out.a.addInplace(md_a);
    }
    return eval.rescale(out);
}

}  // namespace crophe::fhe
