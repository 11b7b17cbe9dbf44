#ifndef CROPHE_GRAPH_OP_H_
#define CROPHE_GRAPH_OP_H_

/**
 * @file
 * FHE operator nodes of the computational graph the scheduler consumes.
 *
 * Each node carries the loop-shape information the CROPHE scheduler needs
 * (Section V-A): how many elements flow through it, how many modular
 * multiplications it performs, which auxiliary constant data it touches
 * (evk digits, BConv matrices, plaintext diagonals), and along which loop
 * dimension it can stream for fine-grained pipelining.
 */

#include <string>
#include <vector>

#include "common/types.h"

namespace crophe::graph {

/** Kinds of FHE operators (Section II-A summary). */
enum class OpKind : u8
{
    Input,         ///< ciphertext polynomial arriving from DRAM
    Output,        ///< result leaving to DRAM
    EwAdd,         ///< element-wise addition (HAdd and partial sums)
    EwMul,         ///< element-wise multiplication (tensor products)
    EwMulPlain,    ///< PMult with a plaintext operand (aux data)
    EwMulConst,    ///< CMult by a scalar
    Twiddle,       ///< element-wise twiddle multiply of a decomposed NTT
    Ntt,           ///< monolithic forward NTT (all limbs)
    INtt,          ///< monolithic inverse NTT
    NttCol,        ///< column step of a decomposed NTT (N1 instances of N2)
    NttRow,        ///< row step of a decomposed NTT (N2 instances of N1)
    INttCol,       ///< column step of a decomposed iNTT
    INttRow,       ///< row step of a decomposed iNTT
    Transpose,     ///< on-chip data transposition (transpose unit)
    Automorphism,  ///< coefficient permutation of HRot
    BConv,         ///< base conversion matrix multiply (ModUp/ModDown)
    KskInnerProd,  ///< inner product with one evk digit
    Rescale,       ///< HRescale limb-drop arithmetic
};

const char *opKindName(OpKind kind);

/** Axis an operator can keep as its outermost loop while streaming. */
enum class StreamAxis : u8
{
    SlotN,   ///< the (tiled) N dimension
    SlotN1,  ///< only the N1 instance dimension (column NTT step)
    SlotN2,  ///< only the N2 instance dimension (row NTT step)
    Limb,    ///< the limb dimension
    None,    ///< must materialize its whole input (orientation switch)
};

using OpId = u32;
constexpr OpId kNoOp = ~0u;

/** One operator node. */
struct Op
{
    OpId id = kNoOp;
    OpKind kind = OpKind::Input;
    std::string label;

    // --- Loop shape -----------------------------------------------------
    u64 n = 0;         ///< slot count N
    u64 n1 = 0;        ///< NTT-decomposition factor (0 if undecomposed)
    u64 n2 = 0;
    u32 limbsIn = 0;   ///< limbs per input operand
    u32 limbsOut = 0;  ///< limbs per output
    u32 beta = 1;      ///< digits reduced over (KskInnerProd)

    // --- Data volumes (in machine words) --------------------------------
    u64 inputWords = 0;   ///< total ciphertext input volume
    u64 outputWords = 0;  ///< output volume
    u64 auxWords = 0;     ///< auxiliary constant volume (evk/ptx/matrix)

    /**
     * Identity of the auxiliary data: operators with equal non-empty
     * auxKey reference the same constants and can *share* them
     * (Section V-A, sharing).
     */
    std::string auxKey;

    // --- Compute --------------------------------------------------------
    u64 flops = 0;  ///< modular multiplications (the PE-lane unit of work)

    // --- Dataflow properties ---------------------------------------------
    /** Outermost-loop axes this operator can stream on. */
    std::vector<StreamAxis> streamAxes;

    /** True if the operator changes the data access orientation (NTT,
     *  automorphism, transpose) — a pipeline barrier unless decomposed. */
    bool orientationSwitch = false;

    bool isTransform() const;
    bool isElementwise() const;
};

/**
 * Factory helpers: fill in volumes/flops/stream axes from the loop shape.
 * @{
 */
Op makeInput(u64 n, u32 limbs, const std::string &label = "input");
Op makeOutput(u64 n, u32 limbs);
Op makeEwBinary(OpKind kind, u64 n, u32 limbs);
Op makeEwMulPlain(u64 n, u32 limbs, const std::string &aux_key);
Op makeEwMulConst(u64 n, u32 limbs);
Op makeTwiddle(u64 n, u32 limbs);
Op makeNtt(OpKind kind, u64 n, u32 limbs);
Op makeNttStep(OpKind kind, u64 n1, u64 n2, u32 limbs);
Op makeTranspose(u64 n, u32 limbs);
Op makeAutomorphism(u64 n, u32 limbs);
Op makeBConv(u64 n, u32 limbs_in, u32 limbs_out);
Op makeKskInnerProd(u64 n, u32 limbs, u32 beta, const std::string &evk_key);
Op makeRescale(u64 n, u32 limbs_in);
/** @} */

}  // namespace crophe::graph

#endif  // CROPHE_GRAPH_OP_H_
