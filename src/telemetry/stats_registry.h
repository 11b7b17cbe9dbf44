#ifndef CROPHE_TELEMETRY_STATS_REGISTRY_H_
#define CROPHE_TELEMETRY_STATS_REGISTRY_H_

/**
 * @file
 * gem5-style hierarchical statistics registry.
 *
 * Components register named stats under dotted paths ("sim.noc.words",
 * "sched.enum.memoHits"); the registry owns them and dumps the whole tree
 * as aligned text or nested JSON. Four stat kinds:
 *
 *   Counter   — monotone u64 (event/word counts)
 *   Scalar    — double (cycles, busy time)
 *   Histogram — fixed linear bins with under/overflow and sum/min/max
 *   Formula   — computed on dump from other stats (rates, utilizations)
 *
 * Path uniqueness is enforced: re-registering a path, or registering a
 * path that is an ancestor/descendant of an existing one ("sim.noc" vs
 * "sim.noc.words"), panics. The get-or-create accessors (counter(),
 * scalar(), histogram()) allow accumulation across repeated runs — they
 * return the existing stat when the path is already bound to the same
 * kind and panic on a kind mismatch.
 */

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.h"

namespace crophe::telemetry {

/** Base of all registered statistics. */
class Stat
{
  public:
    Stat(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {
    }
    virtual ~Stat() = default;

    const std::string &name() const { return name_; }
    const std::string &description() const { return desc_; }

    /** Scalar view (histograms report their mean). */
    virtual double value() const = 0;
    /** Emit the stat's value as a JSON value. */
    virtual void writeJsonValue(std::ostream &os) const;
    /** One-line value for the text dump. */
    virtual std::string textValue() const;

  private:
    std::string name_;
    std::string desc_;
};

/** Monotone event/word counter. */
class Counter : public Stat
{
  public:
    using Stat::Stat;

    Counter &operator++() { ++count_; return *this; }
    Counter &operator+=(u64 n) { count_ += n; return *this; }
    void set(u64 n) { count_ = n; }
    u64 count() const { return count_; }
    double value() const override { return static_cast<double>(count_); }
    void writeJsonValue(std::ostream &os) const override;
    std::string textValue() const override;

  private:
    u64 count_ = 0;
};

/** Floating-point scalar (cycle counts, busy time). */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &operator+=(double v) { value_ += v; return *this; }
    void set(double v) { value_ = v; }
    double value() const override { return value_; }

  private:
    double value_ = 0.0;
};

/** Linear-binned distribution over [lo, hi) with under/overflow bins. */
class Histogram : public Stat
{
  public:
    Histogram(std::string name, std::string desc, double lo, double hi,
              u32 num_bins);

    void sample(double x, u64 weight = 1);

    u64 count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return min_; }
    double max() const { return max_; }
    u64 underflow() const { return underflow_; }
    u64 overflow() const { return overflow_; }
    const std::vector<u64> &bins() const { return bins_; }
    /** Lower edge of bin @p i. */
    double binLo(u32 i) const { return lo_ + i * width_; }

    double value() const override { return mean(); }
    void writeJsonValue(std::ostream &os) const override;
    std::string textValue() const override;

  private:
    double lo_, hi_, width_;
    std::vector<u64> bins_;
    u64 underflow_ = 0;
    u64 overflow_ = 0;
    u64 count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Stat computed on dump from other stats (hit rates, utilizations). */
class Formula : public Stat
{
  public:
    Formula(std::string name, std::string desc, std::function<double()> fn)
        : Stat(std::move(name), std::move(desc)), fn_(std::move(fn))
    {
    }

    double value() const override { return fn_(); }

  private:
    std::function<double()> fn_;
};

/** Ownership + lookup + dump over one tree of stats. */
class StatsRegistry
{
  public:
    /** Strict registration: panics when @p path collides (see file doc). @{ */
    Counter &addCounter(const std::string &path, const std::string &desc);
    Scalar &addScalar(const std::string &path, const std::string &desc);
    Histogram &addHistogram(const std::string &path, const std::string &desc,
                            double lo, double hi, u32 num_bins);
    Formula &addFormula(const std::string &path, const std::string &desc,
                        std::function<double()> fn);
    /** @} */

    /** Get-or-create: returns the existing stat of the same kind, panics
     *  on a kind mismatch. @{ */
    Counter &counter(const std::string &path, const std::string &desc = "");
    Scalar &scalar(const std::string &path, const std::string &desc = "");
    Histogram &histogram(const std::string &path, const std::string &desc,
                         double lo, double hi, u32 num_bins);
    /** @} */

    const Stat *find(const std::string &path) const;
    bool has(const std::string &path) const { return find(path) != nullptr; }
    /** Scalar view of the stat at @p path; panics when missing. */
    double value(const std::string &path) const;
    std::size_t size() const { return stats_.size(); }

    /** Aligned `path  value  # description` lines, sorted by path. */
    void dumpText(std::ostream &os) const;
    /** Nested JSON object following the dotted-path hierarchy. */
    void dumpJson(std::ostream &os) const;

  private:
    void checkPathFree(const std::string &path) const;
    template <typename T> T *findAs(const std::string &path) const;

    /** Sorted so the dotted hierarchy is contiguous for the dumpers. */
    std::map<std::string, std::unique_ptr<Stat>> stats_;
};

}  // namespace crophe::telemetry

#endif  // CROPHE_TELEMETRY_STATS_REGISTRY_H_
