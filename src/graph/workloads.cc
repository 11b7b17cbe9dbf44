#include "graph/workloads.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "graph/keyswitch_builder.h"

namespace crophe::graph {

const char *
rotModeName(RotMode mode)
{
    switch (mode) {
      case RotMode::MinKs: return "MinKS";
      case RotMode::Hoisting: return "Hoisting";
      case RotMode::Hybrid: return "Hybrid";
      case RotMode::TripleHoisted: return "TripleHoisted";
    }
    return "?";
}

u64
Workload::totalOps() const
{
    u64 total = 0;
    for (const auto &seg : segments)
        total += static_cast<u64>(seg.graph.size()) * seg.repetitions;
    return total;
}

u64
Workload::totalFlops() const
{
    u64 total = 0;
    for (const auto &seg : segments)
        total += seg.graph.totalFlops() * seg.repetitions;
    return total;
}

namespace {

/**
 * Append a full HRot to @p g: automorphism of both halves, key switch of
 * the rotated a-half, and the b-half combine. Returns the output node.
 */
OpId
appendHRot(Graph &g, const FheParams &p, u32 level, OpId source,
           const std::string &evk_key, KsDataflow df)
{
    const u64 n = p.n();
    const u32 lq = p.limbsAt(level);
    // Automorphism permutes both ciphertext halves.
    OpId aut = g.add(makeAutomorphism(n, 2 * lq));
    g.connect(source, aut);
    auto ks = buildKeySwitch(g, p, level, aut, evk_key, df);
    OpId combine = g.add(makeEwBinary(OpKind::EwAdd, n, lq));
    g.connect(aut, combine);
    g.connect(ks.outB, combine);
    // outA becomes the new a-half directly; combine is the result handle.
    (void)ks;
    return combine;
}

/**
 * Append the shared ModUp of a hoisting group (per-digit iNTT→BConv→NTT
 * from @p source) and return the per-group handle feeding the hoisted
 * rotations.
 */
OpId
appendHoistModUp(Graph &g, const FheParams &p, u32 level, OpId source)
{
    const u64 n = p.n();
    const u32 beta = p.betaAt(level);
    const u32 ext = p.extLimbsAt(level);

    // Join node representing the ModUp-ed digit tensor.
    Op join_op = makeEwBinary(OpKind::EwAdd, n, ext);
    join_op.label = "modup-join";
    OpId join = g.add(std::move(join_op));
    for (u32 j = 0; j < beta; ++j) {
        u32 lo = j * p.alpha;
        u32 hi = std::min((j + 1) * p.alpha, level + 1);
        u32 dl = hi - lo;
        OpId intt = g.add(makeNtt(OpKind::INtt, n, dl));
        g.connect(source, intt);
        OpId bconv = g.add(makeBConv(n, dl, ext - dl));
        g.connect(intt, bconv);
        OpId ntt = g.add(makeNtt(OpKind::Ntt, n, ext - dl));
        g.connect(bconv, ntt);
        g.connect(ntt, join);
    }
    return join;
}

/**
 * One hoisted rotation from a shared ModUp handle: automorphism in the
 * extended basis + KSKInP with the per-distance evk. ModDown is deferred
 * to the caller (shared across the group, as in MAD).
 */
OpId
appendHoistedRot(Graph &g, const FheParams &p, u32 level, OpId modup,
                 const std::string &evk_key)
{
    const u64 n = p.n();
    const u32 beta = p.betaAt(level);
    const u32 ext = p.extLimbsAt(level);
    OpId aut = g.add(makeAutomorphism(n, ext));
    g.connect(modup, aut);
    OpId inner = g.add(makeKskInnerProd(n, ext, beta, evk_key));
    g.connect(aut, inner);
    return inner;
}

/**
 * Produce the n1 baby-step handles per the rotation strategy. The entry
 * for i = 0 is the (unrotated) source.
 */
std::vector<OpId>
appendBabySteps(Graph &g, const FheParams &p, u32 level, OpId source,
                u32 n1, RotMode mode, u32 r_hyb, const std::string &tag,
                KsDataflow df)
{
    std::vector<OpId> handles(n1, kNoOp);
    handles[0] = source;
    switch (mode) {
      case RotMode::MinKs: {
        // Sequential unit rotations; one shared evk.
        for (u32 i = 1; i < n1; ++i)
            handles[i] = appendHRot(g, p, level, handles[i - 1],
                                    "evk:rot:" + tag + ":unit", df);
        break;
      }
      // TripleHoisted baby steps share the Hoisting shape: one ModUp for
      // the whole set, per-step KSKInP + ModDown (each baby ciphertext is
      // consumed immediately, so its ModDown cannot defer). The triple
      // hoisting's deferred ModDown lives in the giant steps
      // (buildPtMatVecMult).
      case RotMode::TripleHoisted:
      case RotMode::Hoisting: {
        OpId modup = appendHoistModUp(g, p, level, source);
        for (u32 i = 1; i < n1; ++i) {
            OpId inner = appendHoistedRot(g, p, level, modup,
                                          "evk:rot:hoist:" +
                                              std::to_string(i));
            handles[i] = buildModDown(g, p, level, inner);
        }
        break;
      }
      case RotMode::Hybrid: {
        CROPHE_ASSERT(r_hyb >= 1, "bad r_hyb ", r_hyb);
        r_hyb = std::min(r_hyb, n1);  // r_hyb == n1 degenerates to Hoisting
        // Coarse Min-KS chain of stride r_hyb.
        for (u32 c = r_hyb; c < n1; c += r_hyb)
            handles[c] = appendHRot(g, p, level, handles[c - r_hyb],
                                    "evk:rot:" + tag + ":coarse", df);
        if (r_hyb == 1)
            break;
        // One hoisting ModUp per coarse group...
        std::vector<std::pair<u32, OpId>> modups;  // (coarse base, handle)
        for (u32 c = 0; c < n1; c += r_hyb) {
            if (c + 1 < n1)
                modups.emplace_back(
                    c, appendHoistModUp(g, p, level, handles[c]));
        }
        // ...then the fine steps, emitted distance-major: the fine evks
        // are keyed only by the distance f, and emitting all coarse
        // groups' same-distance rotations adjacently lets the scheduler
        // co-run them and stream their shared key once (the new
        // cross-operator sharing opportunity of Section V-C).
        for (u32 f = 1; f < r_hyb; ++f) {
            std::vector<std::pair<u32, OpId>> inners;
            for (auto [c, modup] : modups) {
                if (c + f >= n1)
                    continue;
                inners.emplace_back(
                    c, appendHoistedRot(g, p, level, modup,
                                        "evk:rot:fine:" +
                                            std::to_string(f)));
            }
            for (auto [c, inner] : inners)
                handles[c + f] = buildModDown(g, p, level, inner);
        }
        break;
      }
    }
    return handles;
}

}  // namespace

Graph
buildHMult(const FheParams &p, u32 level, KsDataflow df)
{
    CROPHE_ASSERT(level >= 1, "HMult needs a level to rescale into");
    Graph g;
    const u64 n = p.n();
    const u32 lq = p.limbsAt(level);

    OpId in0 = g.add(makeInput(n, 2 * lq, "ct0"));
    OpId in1 = g.add(makeInput(n, 2 * lq, "ct1"));

    // Tensor product d0, d1, d2 (three element-wise passes).
    OpId d0 = g.add(makeEwBinary(OpKind::EwMul, n, lq));
    g.connect(in0, d0);
    g.connect(in1, d0);
    OpId d1 = g.add(makeEwBinary(OpKind::EwMul, n, lq));
    g.connect(in0, d1);
    g.connect(in1, d1);
    OpId d1b = g.add(makeEwBinary(OpKind::EwMul, n, lq));
    g.connect(in0, d1b);
    g.connect(in1, d1b);
    OpId d1sum = g.add(makeEwBinary(OpKind::EwAdd, n, lq));
    g.connect(d1, d1sum);
    g.connect(d1b, d1sum);
    OpId d2 = g.add(makeEwBinary(OpKind::EwMul, n, lq));
    g.connect(in0, d2);
    g.connect(in1, d2);

    auto ks = buildKeySwitch(g, p, level, d2, "evk:mult", df);

    OpId add_b = g.add(makeEwBinary(OpKind::EwAdd, n, lq));
    g.connect(d0, add_b);
    g.connect(ks.outB, add_b);
    OpId add_a = g.add(makeEwBinary(OpKind::EwAdd, n, lq));
    g.connect(d1sum, add_a);
    g.connect(ks.outA, add_a);

    OpId res_b = g.add(makeRescale(n, lq));
    g.connect(add_b, res_b);
    OpId res_a = g.add(makeRescale(n, lq));
    g.connect(add_a, res_a);

    OpId out = g.add(makeOutput(n, 2 * (lq - 1)));
    g.connect(res_b, out);
    g.connect(res_a, out);
    return g;
}

Graph
buildHRot(const FheParams &p, u32 level, const std::string &evk_key,
          KsDataflow df)
{
    Graph g;
    OpId in = g.add(makeInput(p.n(), 2 * p.limbsAt(level), "ct"));
    OpId rot = appendHRot(g, p, level, in, evk_key, df);
    OpId out = g.add(makeOutput(p.n(), 2 * p.limbsAt(level)));
    g.connect(rot, out);
    return g;
}

Graph
buildPtMatVecMult(const FheParams &p, u32 level, u32 n1, u32 n2,
                  RotMode mode, u32 r_hyb, const std::string &tag,
                  KsDataflow df)
{
    CROPHE_ASSERT(level >= 1, "PtMatVecMult rescales at the end");
    Graph g;
    const u64 n = p.n();
    const u32 lq = p.limbsAt(level);

    OpId in = g.add(makeInput(n, 2 * lq, "ct"));
    auto baby = appendBabySteps(g, p, level, in, n1, mode, r_hyb, tag, df);

    // Baby-step-major accumulation: each rotated ciphertext feeds all n2
    // partial sums as soon as it is produced, so its lifetime is one
    // pipeline stage rather than the whole giant-step phase — the loop
    // order a cross-operator scheduler would choose (only n2 psums stay
    // live instead of n1 baby ciphertexts).
    std::vector<OpId> psum(n2, kNoOp);
    for (u32 i = 0; i < n1; ++i) {
        for (u32 j = 0; j < n2; ++j) {
            OpId pm = g.add(makeEwMulPlain(
                n, lq,
                "ptx:" + tag + ":" + std::to_string(j * n1 + i)));
            g.connect(baby[i], pm);
            if (psum[j] == kNoOp) {
                psum[j] = pm;
            } else {
                OpId add = g.add(makeEwBinary(OpKind::EwAdd, n, lq));
                g.connect(psum[j], add);
                g.connect(pm, add);
                psum[j] = add;
            }
        }
    }
    // TripleHoisted giant steps: every j > 0 gets its own ModUp + hoisted
    // KSKInP, but the (b, a) inner-product pairs accumulate in the
    // extended basis (ext_acc) and share ONE trailing ModDown — the n2-1
    // per-giant-step ModDowns of the eager path collapse to one
    // (DESIGN.md §15). Only the permuted b-half joins the q-basis running
    // sum immediately.
    const bool deferred = mode == RotMode::TripleHoisted;
    const u32 ext = p.extLimbsAt(level);
    OpId ext_acc = kNoOp;
    OpId acc_out = kNoOp;
    for (u32 j = 0; j < n2; ++j) {
        OpId acc = psum[j];
        if (j > 0) {
            if (deferred) {
                OpId modup = appendHoistModUp(g, p, level, acc);
                OpId inner = appendHoistedRot(g, p, level, modup,
                                              "evk:rot:" + tag + ":giant:" +
                                                  std::to_string(j));
                if (ext_acc == kNoOp) {
                    ext_acc = inner;
                } else {
                    OpId add = g.add(makeEwBinary(OpKind::EwAdd, n, ext));
                    g.connect(ext_acc, add);
                    g.connect(inner, add);
                    ext_acc = add;
                }
                // ψ(b): the b-half permutation stays in the q basis.
                OpId autb = g.add(makeAutomorphism(n, lq));
                g.connect(acc, autb);
                acc = autb;
            } else {
                acc = appendHRot(g, p, level, acc,
                                 "evk:rot:" + tag + ":giant:" +
                                     std::to_string(j),
                                 df);
            }
        }
        if (acc_out == kNoOp) {
            acc_out = acc;
        } else {
            OpId add = g.add(makeEwBinary(OpKind::EwAdd, n, lq));
            g.connect(acc_out, add);
            g.connect(acc, add);
            acc_out = add;
        }
    }
    if (ext_acc != kNoOp) {
        OpId md = buildModDown(g, p, level, ext_acc);
        OpId add = g.add(makeEwBinary(OpKind::EwAdd, n, lq));
        g.connect(acc_out, add);
        g.connect(md, add);
        acc_out = add;
    }
    OpId res = g.add(makeRescale(n, lq));
    g.connect(acc_out, res);
    OpId out = g.add(makeOutput(n, 2 * (lq - 1)));
    g.connect(res, out);
    return g;
}

namespace {

/** One EvalMod Horner step: HMult + CAdd + rescale, as a unique segment. */
Graph
buildEvalModStep(const FheParams &p, u32 level, KsDataflow df)
{
    Graph g = buildHMult(p, level, df);
    // Horner adds a constant after each multiply; negligible but present.
    // (The CAdd rides on the rescaled output; modelled inside buildHMult's
    // output level via an extra element-wise op.)
    OpId cadd = g.add(makeEwMulConst(p.n(), p.limbsAt(level - 1)));
    // Attach after the first rescale node: find it.
    for (OpId v = 0; v < g.size(); ++v) {
        if (g.op(v).kind == OpKind::Rescale) {
            g.connect(v, cadd);
            break;
        }
    }
    return g;
}

u32
bsgsSplit(u64 dim, u32 &n1, u32 &n2)
{
    // n1, n2 ~ sqrt(dim), both powers of two, n1*n2 == dim.
    u32 log_dim = log2Exact(dim);
    u32 l1 = (log_dim + 1) / 2;
    n1 = 1u << l1;
    n2 = static_cast<u32>(dim >> l1);
    return l1;
}

}  // namespace

Workload
buildBootstrapping(const FheParams &p, const WorkloadOptions &opt)
{
    Workload w;
    w.name = "bootstrap";
    w.params = p;

    // Sparse-packed bootstrapping [14], [25]: CoeffToSlot as 3 BSGS
    // matmuls, EvalMod as a degree-31 polynomial (Horner: ~15 effective
    // multiply levels with odd-only terms), SlotToCoeff as 3 matmuls.
    const u32 cts_matmuls = 3;
    const u32 stc_matmuls = 3;
    const u32 evalmod_steps = 15;

    // The matmul dimension per factor: the sparse factorization splits a
    // dense slots×slots transform into radix-2^5 stages; each stage is a
    // BSGS matmul over a small dimension (sparse packing keeps the
    // per-stage rotation count low).
    const u64 stage_dim = 1ull << 5;
    u32 n1, n2;
    bsgsSplit(stage_dim, n1, n2);

    // Levels: bootstrapping starts near the top.
    const u32 lv_cts = p.L >= 1 ? p.L - 1 : p.L;
    const u32 lv_mod = p.L > cts_matmuls ? p.L - cts_matmuls : 1;
    const u32 lv_stc =
        lv_mod > evalmod_steps ? lv_mod - evalmod_steps : 1;

    WorkloadSegment cts;
    cts.name = "CoeffToSlot";
    cts.graph = buildPtMatVecMult(p, lv_cts, n1, n2, opt.rotMode, opt.rHyb,
                                  "cts", opt.ksDataflow);
    cts.repetitions = cts_matmuls;
    w.segments.push_back(std::move(cts));

    WorkloadSegment mod;
    mod.name = "EvalMod";
    mod.graph = buildEvalModStep(p, std::max(1u, lv_mod), opt.ksDataflow);
    mod.repetitions = evalmod_steps;
    w.segments.push_back(std::move(mod));

    WorkloadSegment stc;
    stc.name = "SlotToCoeff";
    stc.graph = buildPtMatVecMult(p, std::max(1u, lv_stc), n1, n2,
                                  opt.rotMode, opt.rHyb, "stc",
                                  opt.ksDataflow);
    stc.repetitions = stc_matmuls;
    w.segments.push_back(std::move(stc));
    return w;
}

Workload
buildHelr(const FheParams &p, const WorkloadOptions &opt)
{
    Workload w;
    w.name = "helr";
    w.params = p;

    // One training iteration on a 1024-image minibatch of 14×14 images:
    // per iteration a 196-dim matvec (gradient), a degree-7 sigmoid
    // approximation, and the weight update — then one bootstrap to
    // replenish levels (HELR is bootstrapping-dominated [33]).
    const u32 lv = std::min(p.L, 8u);
    u32 n1, n2;
    bsgsSplit(256, n1, n2);  // 196 padded to 256

    WorkloadSegment grad;
    grad.name = "gradient-matvec";
    grad.graph = buildPtMatVecMult(p, lv, n1, n2, opt.rotMode, opt.rHyb,
                                   "helr", opt.ksDataflow);
    grad.repetitions = 4;  // batch folding of 1024 images into 4 ciphertexts
    w.segments.push_back(std::move(grad));

    WorkloadSegment sig;
    sig.name = "sigmoid";
    sig.graph = buildHMult(p, std::max(1u, lv - 1), opt.ksDataflow);
    sig.repetitions = 3;  // degree-7 via 3 multiplicative levels
    w.segments.push_back(std::move(sig));

    WorkloadSegment upd;
    upd.name = "weight-update";
    {
        Graph g;
        const u64 n = p.n();
        const u32 lq = p.limbsAt(std::max(1u, lv - 4));
        OpId in0 = g.add(makeInput(n, 2 * lq, "w"));
        OpId in1 = g.add(makeInput(n, 2 * lq, "g"));
        OpId scale = g.add(makeEwMulConst(n, lq));
        g.connect(in1, scale);
        OpId add = g.add(makeEwBinary(OpKind::EwAdd, n, lq));
        g.connect(in0, add);
        g.connect(scale, add);
        OpId out = g.add(makeOutput(n, 2 * lq));
        g.connect(add, out);
        upd.graph = std::move(g);
    }
    upd.repetitions = 1;
    w.segments.push_back(std::move(upd));

    auto boot = buildBootstrapping(p, opt);
    for (auto &seg : boot.segments) {
        seg.name = "boot-" + seg.name;
        w.segments.push_back(std::move(seg));
    }
    return w;
}

namespace {

Workload
buildResNet(const FheParams &p, const WorkloadOptions &opt, u32 layers,
            const char *name)
{
    Workload w;
    w.name = name;
    w.params = p;

    // Multiplexed-convolution ResNet [38]: each conv layer lowers to a
    // BSGS matmul over the packed feature map, followed by a polynomial
    // ReLU approximation (a few HMult levels); a bootstrap replenishes
    // levels every other layer.
    const u32 lv = std::min(p.L, 10u);
    u32 n1, n2;
    bsgsSplit(1ull << 8, n1, n2);

    WorkloadSegment conv;
    conv.name = "conv-matmul";
    conv.graph = buildPtMatVecMult(p, lv, n1, n2, opt.rotMode, opt.rHyb,
                                   "conv", opt.ksDataflow);
    conv.repetitions = layers;
    w.segments.push_back(std::move(conv));

    WorkloadSegment relu;
    relu.name = "relu-poly";
    relu.graph = buildHMult(p, std::max(1u, lv - 1), opt.ksDataflow);
    relu.repetitions = static_cast<u64>(layers) * 4;  // deg-15 approx
    w.segments.push_back(std::move(relu));

    auto boot = buildBootstrapping(p, opt);
    const u64 boots = ceilDiv(layers, 2);
    for (auto &seg : boot.segments) {
        seg.name = "boot-" + seg.name;
        seg.repetitions *= boots;
        w.segments.push_back(std::move(seg));
    }
    return w;
}

}  // namespace

Workload
buildResNet20(const FheParams &p, const WorkloadOptions &opt)
{
    return buildResNet(p, opt, 20, "resnet20");
}

Workload
buildResNet110(const FheParams &p, const WorkloadOptions &opt)
{
    return buildResNet(p, opt, 110, "resnet110");
}

Workload
buildWorkload(const std::string &name, const FheParams &p,
              const WorkloadOptions &opt)
{
    if (name == "bootstrap")
        return buildBootstrapping(p, opt);
    if (name == "helr")
        return buildHelr(p, opt);
    if (name == "resnet20")
        return buildResNet20(p, opt);
    if (name == "resnet110")
        return buildResNet110(p, opt);
    // User input (CLI/config lookup), not an invariant: recoverable.
    throw RecoverableError("unknown workload: " + name);
}

}  // namespace crophe::graph
