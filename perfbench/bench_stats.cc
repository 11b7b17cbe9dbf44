#include "bench_stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

/** Rank (1-based) of the nearest-rank @p pct-th percentile of @p n
 *  samples: ceil(pct · n / 100), at least 1. */
std::size_t
nearestRank(std::size_t n, unsigned pct)
{
    return std::max<std::size_t>((pct * n + 99) / 100, 1);
}

}  // namespace

double
percentile(std::vector<double> values, unsigned pct)
{
    if (values.empty())
        throw std::invalid_argument("percentile of no samples");
    std::size_t k = nearestRank(values.size(), pct) - 1;
    std::nth_element(values.begin(), values.begin() + k, values.end());
    return values[k];
}

std::size_t
samplesBeyond(std::size_t n, unsigned pct)
{
    return n - std::min(n, nearestRank(n, pct));
}

unsigned
tailPercentile(std::size_t n)
{
    for (unsigned pct = 99; pct > 0; --pct)
        if (samplesBeyond(n, pct) >= 10)
            return pct;
    return 0;
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50);
}

std::vector<double>
fastestPerInput(const std::vector<double> &values,
                const std::vector<std::uint64_t> &keys)
{
    if (values.size() != keys.size())
        throw std::invalid_argument("fastestPerInput needs one key per value");
    std::unordered_map<std::uint64_t, double> best;
    for (std::size_t i = 0; i < values.size(); ++i) {
        auto [it, fresh] = best.emplace(keys[i], values[i]);
        if (!fresh)
            it->second = std::min(it->second, values[i]);
    }
    std::vector<double> out;
    out.reserve(values.size());
    for (std::uint64_t k : keys)
        out.push_back(best.at(k));
    return out;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        throw std::invalid_argument("geomean of no values");
    double log_sum = 0.0;
    for (double v : values) {
        if (!(v > 0.0))
            throw std::invalid_argument("geomean of a non-positive value");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
modelErr(const std::vector<double> &sim, const std::vector<double> &model)
{
    if (sim.empty() || sim.size() != model.size())
        throw std::invalid_argument("modelErr needs equal, non-empty sets");
    double sum = 0.0;
    for (std::size_t i = 0; i < sim.size(); ++i)
        sum += std::abs(std::log(sim[i] / model[i]));
    return std::exp(sum / static_cast<double>(sim.size())) - 1.0;
}

double
pickRegret(const std::vector<std::vector<double>> &sim_by_pair,
           const std::vector<std::size_t> &pick)
{
    if (sim_by_pair.size() != pick.size())
        throw std::invalid_argument("pickRegret needs one pick per pair");
    std::vector<double> ratios;
    for (std::size_t i = 0; i < pick.size(); ++i) {
        const auto &sim = sim_by_pair[i];
        double best = *std::min_element(sim.begin(), sim.end());
        ratios.push_back(sim.at(pick[i]) / best);
    }
    return geomean(ratios) - 1.0;
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 0x100000001b3ull;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

}  // namespace perfbench
