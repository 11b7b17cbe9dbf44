#ifndef CROPHE_GRAPH_KEYSWITCH_BUILDER_H_
#define CROPHE_GRAPH_KEYSWITCH_BUILDER_H_

/**
 * @file
 * Expansion of the key-switching primitive into its operator subgraph
 * (Figure 1): Decomp → per-digit { iNTT → BConv(ModUp) → NTT } →
 * KSKInP → { iNTT → BConv(ModDown) → NTT } per output half.
 *
 * Three dataflow variants are emitted (DESIGN.md §15): the fused
 * per-digit pipeline above, the CiFlow output-stationary variant whose
 * (b, a) result pair shares one batched ModDown walk, and the CiFlow
 * reordered-ModUp variant whose per-digit forward transforms collapse
 * into one batched NTT node. All three compute the same key switch; they
 * differ in node structure — and hence in the orientation switches,
 * intermediate traffic and grouping opportunities the scheduler sees.
 */

#include <string>

#include "graph/graph.h"
#include "graph/params.h"

namespace crophe::graph {

/** Key-switch dataflow as a scheduler search point (DESIGN.md §15). The
 *  CKKS library runs only the fused pipeline; the CiFlow variants exist
 *  here, as op graphs the cost model prices. */
enum class KsDataflow : u8
{
    Fused = 0,             ///< per-digit iNTT→BConv→NTT pipeline (default)
    OutputStationary = 1,  ///< pair-batched single ModDown walk
    ReorderedModUp = 2,    ///< one batched NTT across all digits' BConv rows
};

/** Stable lowercase name: fused | ostat | reordup. */
const char *ksDataflowName(KsDataflow df);

/** Node handles returned by the expansion. */
struct KeySwitchNodes
{
    OpId inputPoly;  ///< consumes d(X) over ℓ+1 limbs (Eval rep)
    OpId outB;       ///< produces the b half over ℓ+1 limbs
    OpId outA;       ///< produces the a half over ℓ+1 limbs
};

/**
 * Append a full key-switch of a level-ℓ polynomial to @p g.
 *
 * @param producer node whose output feeds the key switch (kNoOp adds an
 *        Input node);
 * @param evk_key identity of the evaluation key (e.g. "evk:mult" or
 *        "evk:rot:5") — operators referencing equal keys can share it;
 * @param df dataflow variant to emit (see file doc). For OutputStationary
 *        the (b, a) halves leave one shared pair-ModDown chain, so outB
 *        and outA are the same node.
 */
KeySwitchNodes buildKeySwitch(Graph &g, const FheParams &params, u32 level,
                              OpId producer, const std::string &evk_key,
                              KsDataflow df = KsDataflow::Fused);

/**
 * Append the ModDown of one output half after @p source (a value in the
 * extended basis): iNTT(α) → BConv(α→ℓ+1) → NTT(ℓ+1) → EwAdd(ℓ+1) with
 * the top part → EwMulConst(ℓ+1) for the 1/P scaling. Returns the final
 * node. A key switch runs one per output half; a hoisting group shares
 * one.
 */
OpId buildModDown(Graph &g, const FheParams &params, u32 level, OpId source);

/** Count of ops a key switch expands to (used by workload sizing tests). */
u32 keySwitchOpCount(const FheParams &params, u32 level);

/** Dataflow-aware op count; Fused matches the two-argument overload. */
u32 keySwitchOpCount(const FheParams &params, u32 level, KsDataflow df);

}  // namespace crophe::graph

#endif  // CROPHE_GRAPH_KEYSWITCH_BUILDER_H_
