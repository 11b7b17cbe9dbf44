#include "graph/keyswitch_builder.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"

namespace crophe::graph {

const char *
ksDataflowName(KsDataflow df)
{
    switch (df) {
      case KsDataflow::Fused: return "fused";
      case KsDataflow::OutputStationary: return "ostat";
      case KsDataflow::ReorderedModUp: return "reordup";
    }
    return "?";
}

namespace {

/** Limbs of digit @p j at level ℓ (the last digit may be partial). */
u32
digitLimbCount(const FheParams &p, u32 j, u32 level)
{
    u32 lo = j * p.alpha;
    u32 hi = std::min((j + 1) * p.alpha, level + 1);
    CROPHE_ASSERT(hi > lo, "empty digit");
    return hi - lo;
}

/**
 * Output-stationary pair ModDown: the (b, a) accumulator halves leave the
 * KSKInP together, so the p-limb iNTT and the q-limb NTT each run once as
 * a 2×-batched walk (one twiddle stream for the resident pair) instead of
 * once per half. The BConv matrix is per-polynomial and stays two nodes.
 */
OpId
buildModDownPair(Graph &g, const FheParams &p, u32 level, OpId source)
{
    const u64 n = p.n();
    const u32 lq = p.limbsAt(level);

    OpId intt = g.add(makeNtt(OpKind::INtt, n, 2 * p.alpha));
    g.connect(source, intt);
    OpId bconv_b = g.add(makeBConv(n, p.alpha, lq));
    g.connect(intt, bconv_b);
    OpId bconv_a = g.add(makeBConv(n, p.alpha, lq));
    g.connect(intt, bconv_a);
    OpId ntt = g.add(makeNtt(OpKind::Ntt, n, 2 * lq));
    g.connect(bconv_b, ntt);
    g.connect(bconv_a, ntt);
    OpId sub = g.add(makeEwBinary(OpKind::EwAdd, n, 2 * lq));
    g.connect(source, sub);  // the q-limb top parts of both halves
    g.connect(ntt, sub);
    OpId scale = g.add(makeEwMulConst(n, 2 * lq));
    g.connect(sub, scale);
    return scale;
}

}  // namespace

OpId
buildModDown(Graph &g, const FheParams &p, u32 level, OpId source)
{
    const u64 n = p.n();
    const u32 lq = p.limbsAt(level);

    OpId intt = g.add(makeNtt(OpKind::INtt, n, p.alpha));
    g.connect(source, intt);
    OpId bconv = g.add(makeBConv(n, p.alpha, lq));
    g.connect(intt, bconv);
    OpId ntt = g.add(makeNtt(OpKind::Ntt, n, lq));
    g.connect(bconv, ntt);
    OpId sub = g.add(makeEwBinary(OpKind::EwAdd, n, lq));
    g.connect(source, sub);  // the q-limb top part
    g.connect(ntt, sub);
    OpId scale = g.add(makeEwMulConst(n, lq));
    g.connect(sub, scale);
    return scale;
}

KeySwitchNodes
buildKeySwitch(Graph &g, const FheParams &params, u32 level, OpId producer,
               const std::string &evk_key, KsDataflow df)
{
    const u64 n = params.n();
    const u32 beta = params.betaAt(level);
    const u32 ext = params.extLimbsAt(level);

    KeySwitchNodes nodes;
    if (producer == kNoOp) {
        nodes.inputPoly =
            g.add(makeInput(n, params.limbsAt(level), "ks-input"));
    } else {
        nodes.inputPoly = producer;
    }

    // ModUp (Decomp itself is zero-cost bookkeeping).
    OpId inner = g.add(makeKskInnerProd(n, ext, beta, evk_key));
    if (df == KsDataflow::ReorderedModUp) {
        // Per digit: iNTT → BConv only; the converted rows of ALL digits
        // then share one batched forward NTT (one twiddle walk per target
        // modulus instead of β) feeding the inner product.
        u32 total = 0;
        std::vector<OpId> bconvs;
        bconvs.reserve(beta);
        for (u32 j = 0; j < beta; ++j) {
            u32 dl = digitLimbCount(params, j, level);
            OpId intt = g.add(makeNtt(OpKind::INtt, n, dl));
            g.connect(nodes.inputPoly, intt);
            OpId bconv = g.add(makeBConv(n, dl, ext - dl));
            g.connect(intt, bconv);
            bconvs.push_back(bconv);
            total += ext - dl;
        }
        OpId ntt = g.add(makeNtt(OpKind::Ntt, n, total));
        for (OpId b : bconvs)
            g.connect(b, ntt);
        g.connect(ntt, inner);
    } else {
        // Fused / OutputStationary: per-digit iNTT → BConv → NTT pipeline.
        for (u32 j = 0; j < beta; ++j) {
            u32 dl = digitLimbCount(params, j, level);
            OpId intt = g.add(makeNtt(OpKind::INtt, n, dl));
            g.connect(nodes.inputPoly, intt);
            OpId bconv = g.add(makeBConv(n, dl, ext - dl));
            g.connect(intt, bconv);
            OpId ntt = g.add(makeNtt(OpKind::Ntt, n, ext - dl));
            g.connect(bconv, ntt);
            g.connect(ntt, inner);
        }
    }

    // ModDown: separate per-half chains, or the output-stationary shared
    // pair walk (outB == outA — the pair leaves as one tensor).
    if (df == KsDataflow::OutputStationary) {
        nodes.outB = buildModDownPair(g, params, level, inner);
        nodes.outA = nodes.outB;
    } else {
        nodes.outB = buildModDown(g, params, level, inner);
        nodes.outA = buildModDown(g, params, level, inner);
    }
    return nodes;
}

u32
keySwitchOpCount(const FheParams &params, u32 level)
{
    return keySwitchOpCount(params, level, KsDataflow::Fused);
}

u32
keySwitchOpCount(const FheParams &params, u32 level, KsDataflow df)
{
    const u32 beta = params.betaAt(level);
    switch (df) {
      case KsDataflow::Fused:
        return 3 * beta + 1 + 2 * 5;
      case KsDataflow::OutputStationary:
        // Same ModUp + inner product, one 6-op pair ModDown.
        return 3 * beta + 1 + 6;
      case KsDataflow::ReorderedModUp:
        // 2 ops per digit + the batched NTT, plus the fused ModDowns.
        return 2 * beta + 1 + 1 + 2 * 5;
    }
    return 0;
}

}  // namespace crophe::graph
