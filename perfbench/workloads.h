#ifndef CROPHE_PERFBENCH_WORKLOADS_H_
#define CROPHE_PERFBENCH_WORKLOADS_H_

/**
 * @file
 * The benchmark's units of work and their output checks:
 *
 * - search-cold: one (workload, rotation scheme, ks dataflow, design)
 *   point built with graph::buildWorkload and searched cold with
 *   sched::scheduleWorkload;
 * - simulate-warm: one model cell (design × workload [× ks dataflow])
 *   whose unique segments are fetched warm from a plan cache with
 *   sched::scheduleGraph and run through sim::simulateSchedule;
 * - ckks-infer: one encrypted 32×32 matrix-vector product plus a cubic
 *   sigmoid on an fhe::FheContext.
 *
 * Every call into a library layer is wrapped in a tracer span named after
 * the call. Each check judges an output against its own input only.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "common/rng.h"
#include "fhe/bsgs.h"
#include "graph/workloads.h"
#include "hw/config.h"
#include "plan/plan_cache.h"
#include "sched/group.h"
#include "tracer.h"

namespace perfbench {

namespace graph = crophe::graph;
namespace fhe = crophe::fhe;
namespace hw = crophe::hw;
namespace plan = crophe::plan;
namespace sched = crophe::sched;

// --- op sequences ----------------------------------------------------------

/** splitmix64 of (@p a, @p b): derives per-op and per-block seeds. */
std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b);

/**
 * Seeded walk over a population of @p size inputs: op i draws element
 * i mod size of block i / size, each block a fresh seeded permutation, so
 * every full block covers the population once. A pure function of
 * (seed, size, i).
 */
class Deck
{
  public:
    Deck(std::uint64_t seed, std::uint64_t size);
    std::uint64_t at(std::uint64_t i);

  private:
    std::uint64_t seed_;
    std::uint64_t size_;
    std::uint64_t block_ = ~0ull;
    std::vector<std::uint64_t> perm_;
};

// --- search-cold -----------------------------------------------------------

/** One point of the cold-search population. */
struct SearchPoint
{
    std::string workload;  ///< bootstrap | helr | resnet20
    graph::WorkloadOptions wopt;
    std::string design;    ///< e.g. "CROPHE-64@64MB"
    hw::HwConfig cfg;
    graph::FheParams params;
};

/**
 * 7 rotation schemes × 3 ks dataflows × {bootstrap, helr, resnet20} ×
 * {CROPHE-64 at 512 and 64 MB, CROPHE-36 at 180 and 45 MB}: 252 points.
 */
std::vector<SearchPoint> searchPopulation();

/** Outputs and counters of one cold search. */
struct SearchRun
{
    bool degraded = false;
    double cycles = 0.0;     ///< modeled workload cycles
    std::uint64_t flops = 0;       ///< scheduled modmuls
    std::uint64_t graphFlops = 0;  ///< Workload::totalFlops()
    std::uint64_t dramWords = 0;
    std::uint64_t analyzed = 0;    ///< SearchTelemetry::analyzed()
    std::uint64_t memoHits = 0;
    std::uint64_t pruned = 0;      ///< SearchTelemetry::prunedWindows()
    std::uint64_t inserts = 0;     ///< PlanCacheStats::insertions
};

/** Build and cold-search @p p: default SchedOptions, fresh memo, empty
 *  in-memory plan cache. */
SearchRun runSearchPoint(const SearchPoint &p, Tracer &tracer);

/** Not degraded, finite positive cycles, scheduled flops ≥ graph flops
 *  (more only when NTT decomposition rewrote a segment). */
bool checkSearchRun(const SearchRun &r);

void digestSearchRun(const SearchRun &r, Digest &d);

// --- simulate-warm ---------------------------------------------------------

/** Tracer tags of model cells. */
inline constexpr std::uint32_t kTagMad = 0;
inline constexpr std::uint32_t kTagCrophe = 1;

/** One (design, workload[, ks dataflow]) cell of the model comparison. */
struct Cell
{
    std::string label;       ///< "ARK+MAD/helr", "CROPHE-64/helr/ostat"
    bool crophe = false;
    std::size_t pair = 0;    ///< index of its (design, workload) pair
    hw::HwConfig cfg;
    sched::SchedOptions opt; ///< observer, memo and cache left null
    graph::Workload workload;
    /** Modeled workload cycles from the cold fill (the cost model's
     *  ranking key among a pair's ks dataflows). */
    double modelWorkloadCycles = 0.0;
};

/**
 * The 36 cells: 6 MAD baselines × 3 workloads, and CROPHE-64/-36 ×
 * 3 workloads × {fused, ostat, reordup} at Hybrid r=4. Builds every graph
 * (one unit of @p phase per cell).
 */
std::vector<Cell> buildCells(Tracer &tracer, Phase phase);

/** Number of (design, workload) pairs over @p cells. */
std::size_t pairCount(const std::vector<Cell> &cells);

/** Cold-search every cell into @p cache (one unit per cell). */
void fillCells(std::vector<Cell> &cells, plan::PlanCache &cache,
               Tracer &tracer, Phase phase);

/** Outputs and counters of one warm cell simulation. */
struct CellRun
{
    std::uint64_t segments = 0;
    std::uint64_t planHits = 0;       ///< segments served by the cache
    std::uint64_t flopMismatches = 0; ///< segments with sim ≠ sched flops
    double simCycles = 0.0;           ///< one pass over unique segments
    double modelCycles = 0.0;         ///< same pass, cost model
    std::uint64_t events = 0;
    std::uint64_t dramRowHits = 0;
    std::uint64_t dramRowMisses = 0;
};

/** Warm scheduleGraph + simulateSchedule for every unique segment. */
CellRun simulateCell(const Cell &cell, plan::PlanCache &cache,
                     Tracer &tracer);

/** Every segment a cache hit, sim flops = schedule flops, cycles finite
 *  and positive. */
bool checkCellRun(const CellRun &r);

void digestCellRun(const CellRun &r, Digest &d);

/** The modeled metrics over all cells (one reference pass). */
struct ModelReport
{
    bool ok = true;
    double simCycles = 0.0;    ///< geomean over pairs of the picked cell
    double modelErr = 0.0;
    double pickRegret = 0.0;
    double ratioCrophe = 0.0;  ///< geomean sim/model, CROPHE cells
    double ratioMad = 0.0;
    double dramRowHit = 0.0;
    std::uint64_t digest = 0;
    /** Per CROPHE pair: "CROPHE-64/helr model=ostat sim-best=fused". */
    std::vector<std::string> picks;
};

/** Simulate every cell once (one unit of @p phase per cell). */
ModelReport modelReport(const std::vector<Cell> &cells,
                        plan::PlanCache &cache, Tracer &tracer, Phase phase);

// --- ckks-infer ------------------------------------------------------------

inline constexpr std::uint32_t kDim = 32;  ///< weight matrix is kDim²
inline constexpr double kSlotTolerance = 1.0 / 1024.0;

/** Context, keys and encoded weights of the encrypted inference. */
struct FheBench
{
    std::unique_ptr<fhe::FheContext> ctx;
    std::unique_ptr<fhe::KeyGenerator> keygen;
    fhe::PublicKey pk;
    fhe::KswKey rlk;
    fhe::BsgsKeys rot;
    std::vector<std::vector<double>> w;
    std::vector<std::vector<double>> diags;
};

/** N=2^13, 8 levels, α=3; public, relinearization and Hybrid r=4
 *  rotation keys (n1=8, n2=4), fixed key seed; weights from
 *  @p weight_seed. One unit of @p phase. */
std::unique_ptr<FheBench> buildFheBench(std::uint64_t weight_seed,
                                        Tracer &tracer, Phase phase);

/** Seeded kDim-entry feature vector (also the weight rows' generator). */
std::vector<double> drawVector(crophe::Rng &rng, std::uint32_t n);

/** Outputs of one encrypted inference. */
struct InferRun
{
    std::vector<double> got;   ///< decrypted slots (all N/2)
    std::vector<double> want;  ///< plaintext reference per slot
    std::uint64_t nttLimbs = 0;
};

/**
 * Encode+encrypt @p x, PtMatVecMult, cubic sigmoid, decrypt+decode, with
 * encryption randomness from @p eval_seed alone, so an inference's output
 * depends only on its inputs, never on the inferences before it.
 */
InferRun runInference(const FheBench &b, std::uint64_t eval_seed,
                      const std::vector<double> &x, Tracer &tracer);

/** Every slot within kSlotTolerance of its reference. */
bool checkInferRun(const InferRun &r);

void digestInferRun(const InferRun &r, Digest &d);

/**
 * −log2 of the largest slot error of a fixed-input inference (fixed
 * weights, features and encryption seed) on @p b's context and keys.
 */
double precisionBits(const FheBench &b, Tracer &tracer, Phase phase,
                     Digest &d);

}  // namespace perfbench

#endif  // CROPHE_PERFBENCH_WORKLOADS_H_
