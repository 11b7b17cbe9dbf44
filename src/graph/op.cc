#include "graph/op.h"

#include "common/logging.h"
#include "common/math_util.h"

namespace crophe::graph {

const char *
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::Input: return "Input";
      case OpKind::Output: return "Output";
      case OpKind::EwAdd: return "EwAdd";
      case OpKind::EwMul: return "EwMul";
      case OpKind::EwMulPlain: return "EwMulPlain";
      case OpKind::EwMulConst: return "EwMulConst";
      case OpKind::Twiddle: return "Twiddle";
      case OpKind::Ntt: return "NTT";
      case OpKind::INtt: return "iNTT";
      case OpKind::NttCol: return "col-NTT";
      case OpKind::NttRow: return "row-NTT";
      case OpKind::INttCol: return "col-iNTT";
      case OpKind::INttRow: return "row-iNTT";
      case OpKind::Transpose: return "Transpose";
      case OpKind::Automorphism: return "Auto";
      case OpKind::BConv: return "BConv";
      case OpKind::KskInnerProd: return "KSKInP";
      case OpKind::Rescale: return "Rescale";
    }
    return "?";
}

bool
Op::isTransform() const
{
    switch (kind) {
      case OpKind::Ntt:
      case OpKind::INtt:
      case OpKind::NttCol:
      case OpKind::NttRow:
      case OpKind::INttCol:
      case OpKind::INttRow:
        return true;
      default:
        return false;
    }
}

bool
Op::isElementwise() const
{
    switch (kind) {
      case OpKind::EwAdd:
      case OpKind::EwMul:
      case OpKind::EwMulPlain:
      case OpKind::EwMulConst:
      case OpKind::Twiddle:
      case OpKind::Rescale:
        return true;
      default:
        return false;
    }
}

namespace {

Op
base(OpKind kind, u64 n, u32 limbs_in, u32 limbs_out)
{
    Op op;
    op.kind = kind;
    op.label = opKindName(kind);
    op.n = n;
    op.limbsIn = limbs_in;
    op.limbsOut = limbs_out;
    op.inputWords = static_cast<u64>(limbs_in) * n;
    op.outputWords = static_cast<u64>(limbs_out) * n;
    return op;
}

}  // namespace

Op
makeInput(u64 n, u32 limbs, const std::string &label)
{
    Op op = base(OpKind::Input, n, 0, limbs);
    op.label = label;
    op.inputWords = 0;
    op.streamAxes = {StreamAxis::SlotN, StreamAxis::Limb};
    return op;
}

Op
makeOutput(u64 n, u32 limbs)
{
    Op op = base(OpKind::Output, n, limbs, 0);
    op.outputWords = 0;
    op.streamAxes = {StreamAxis::SlotN, StreamAxis::Limb};
    return op;
}

Op
makeEwBinary(OpKind kind, u64 n, u32 limbs)
{
    CROPHE_ASSERT(kind == OpKind::EwAdd || kind == OpKind::EwMul,
                  "not a binary element-wise kind");
    Op op = base(kind, n, limbs, limbs);
    op.inputWords *= 2;  // two ciphertext operands
    op.flops = static_cast<u64>(limbs) * n;
    op.streamAxes = {StreamAxis::SlotN, StreamAxis::Limb};
    return op;
}

Op
makeEwMulPlain(u64 n, u32 limbs, const std::string &aux_key)
{
    Op op = base(OpKind::EwMulPlain, n, limbs, limbs);
    // On-the-fly limb extension (OF-Limb [34], applied to all designs):
    // only one plaintext limb is fetched; the rest are generated on-chip,
    // trading one extra multiply per generated element.
    op.auxWords = n;
    op.auxKey = aux_key;
    op.flops = 2ull * limbs * n;
    op.streamAxes = {StreamAxis::SlotN, StreamAxis::Limb};
    return op;
}

Op
makeEwMulConst(u64 n, u32 limbs)
{
    Op op = base(OpKind::EwMulConst, n, limbs, limbs);
    op.flops = static_cast<u64>(limbs) * n;
    op.streamAxes = {StreamAxis::SlotN, StreamAxis::Limb};
    return op;
}

Op
makeTwiddle(u64 n, u32 limbs)
{
    Op op = base(OpKind::Twiddle, n, limbs, limbs);
    op.flops = static_cast<u64>(limbs) * n;
    // Twiddle factors are generated on the fly from per-limb seeds (PRNG
    // optimization applied to all designs), so no aux traffic is charged.
    op.streamAxes = {StreamAxis::SlotN, StreamAxis::Limb};
    return op;
}

Op
makeNtt(OpKind kind, u64 n, u32 limbs)
{
    CROPHE_ASSERT(kind == OpKind::Ntt || kind == OpKind::INtt,
                  "not a monolithic NTT kind");
    Op op = base(kind, n, limbs, limbs);
    op.flops = static_cast<u64>(limbs) * (n / 2) * log2Exact(n);
    op.orientationSwitch = true;
    op.streamAxes = {StreamAxis::Limb};  // cannot stream on N
    return op;
}

Op
makeNttStep(OpKind kind, u64 n1, u64 n2, u32 limbs)
{
    const u64 n = n1 * n2;
    Op op = base(kind, n, limbs, limbs);
    op.n1 = n1;
    op.n2 = n2;
    switch (kind) {
      case OpKind::NttCol:
      case OpKind::INttCol:
        // N1 independent instances of length-N2 transforms.
        op.flops = static_cast<u64>(limbs) * n1 * (n2 / 2) * log2Exact(n2);
        op.streamAxes = {StreamAxis::SlotN1, StreamAxis::Limb};
        break;
      case OpKind::NttRow:
      case OpKind::INttRow:
        // N2 independent instances of length-N1 transforms.
        op.flops = static_cast<u64>(limbs) * n2 * (n1 / 2) * log2Exact(n1);
        op.streamAxes = {StreamAxis::SlotN2, StreamAxis::Limb};
        break;
      default:
        CROPHE_PANIC("not a decomposed NTT kind");
    }
    return op;
}

Op
makeTranspose(u64 n, u32 limbs)
{
    Op op = base(OpKind::Transpose, n, limbs, limbs);
    op.orientationSwitch = true;
    op.streamAxes = {StreamAxis::Limb};
    return op;
}

Op
makeAutomorphism(u64 n, u32 limbs)
{
    Op op = base(OpKind::Automorphism, n, limbs, limbs);
    // Realized by the inter-lane shift networks; negligible multiplies.
    op.orientationSwitch = true;
    op.streamAxes = {StreamAxis::Limb};
    return op;
}

Op
makeBConv(u64 n, u32 limbs_in, u32 limbs_out)
{
    Op op = base(OpKind::BConv, n, limbs_in, limbs_out);
    // x̂ scaling (one mul per input element) plus the matrix product.
    op.flops = static_cast<u64>(limbs_in) * n +
               static_cast<u64>(limbs_in) * limbs_out * n;
    // The constant matrix is tiny ((α+ℓ+1)×α); count it but it is < 1k.
    op.auxWords = static_cast<u64>(limbs_in) * limbs_out;
    op.auxKey = "";  // too small to matter for sharing
    // Reduces over limbs per coefficient: streams on N, not on limbs.
    op.streamAxes = {StreamAxis::SlotN};
    return op;
}

Op
makeKskInnerProd(u64 n, u32 limbs, u32 beta, const std::string &evk_key)
{
    Op op = base(OpKind::KskInnerProd, n, limbs, limbs);
    op.beta = beta;
    op.inputWords = static_cast<u64>(limbs) * n * beta;
    op.outputWords = static_cast<u64>(limbs) * n * 2;  // (b, a) halves
    // evk digit: 2 polynomials of limbs × N per digit; the a-halves are
    // regenerated on-chip from PRNG seeds ([2], [51], applied to all
    // designs), halving the fetched volume.
    op.auxWords = static_cast<u64>(limbs) * n * beta;
    op.auxKey = evk_key;
    op.flops = 2ull * limbs * n * beta;
    op.streamAxes = {StreamAxis::SlotN, StreamAxis::Limb};
    return op;
}

Op
makeRescale(u64 n, u32 limbs_in)
{
    CROPHE_ASSERT(limbs_in >= 2, "rescale needs at least two limbs");
    Op op = base(OpKind::Rescale, n, limbs_in, limbs_in - 1);
    op.flops = static_cast<u64>(limbs_in - 1) * n * 2;
    op.streamAxes = {StreamAxis::SlotN, StreamAxis::Limb};
    return op;
}

}  // namespace crophe::graph
