#ifndef CROPHE_PERFBENCH_BENCH_STATS_H_
#define CROPHE_PERFBENCH_BENCH_STATS_H_

/**
 * @file
 * Order statistics, model-accuracy formulas and the output digest the
 * benchmark reports. Pure functions, so the self-tests can pin each one
 * on hand-computed inputs.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/** Nearest-rank @p pct-th percentile of @p values (any order). The rank
 *  is integer arithmetic, so samplesBeyond() agrees with it exactly. */
double percentile(std::vector<double> values, unsigned pct);

/** Samples strictly beyond the nearest-rank @p pct-th percentile. */
std::size_t samplesBeyond(std::size_t n, unsigned pct);

/**
 * Highest whole percentile (at most 99) that leaves at least ten samples
 * beyond it, or 0 when @p n is too small for any (n < 11).
 */
unsigned tailPercentile(std::size_t n);

/** Median (nearest-rank p50). */
double median(std::vector<double> values);

/**
 * @p values with each sample replaced by the smallest sample of the same
 * input, where @p keys[i] names the input @p values[i] timed. Every op is
 * a deterministic computation of its input, and contention from other
 * tenants of a shared host only ever adds time to it, so an input's
 * fastest repeat is its least disturbed cost. An input timed once keeps
 * its sample.
 */
std::vector<double> fastestPerInput(const std::vector<double> &values,
                                    const std::vector<std::uint64_t> &keys);

/** Geometric mean of positive values. */
double geomean(const std::vector<double> &values);

/** exp(mean |ln(sim_i / model_i)|) - 1 over paired cycle counts. */
double modelErr(const std::vector<double> &sim,
                const std::vector<double> &model);

/**
 * Geomean over pairs of sim[pick] / min(sim) - 1: how much slower the
 * candidate the cost model picked simulates than the best candidate.
 * @p sim_by_pair[i] holds one pair's simulated cycles per candidate and
 * @p pick[i] the index the model picked.
 */
double pickRegret(const std::vector<std::vector<double>> &sim_by_pair,
                  const std::vector<std::size_t> &pick);

/** FNV-1a over 64-bit words: the digest of a run's modeled outputs. */
class Digest
{
  public:
    void add(std::uint64_t v);
    /** Exact bit pattern, so any change in the last ulp shows. */
    void add(double v);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench

#endif  // CROPHE_PERFBENCH_BENCH_STATS_H_
