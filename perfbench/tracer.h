#ifndef CROPHE_PERFBENCH_TRACER_H_
#define CROPHE_PERFBENCH_TRACER_H_

/**
 * @file
 * Host spans recorded by the benchmark around every call it makes into a
 * library layer, plus the work counters the layers report for each call.
 * Each span carries its name, start, end, parent span and the unit of
 * work (a timed op, one set-up cell, one reference cell) it belongs to.
 * Spans are kept in memory and written once, at exit, as a Chrome trace
 * on one host track. A disabled tracer records nothing.
 *
 * Single-threaded by design: the benchmark pins the library's pool to one
 * thread, so every span opens and closes on the main thread.
 */

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Which part of a run a unit of work belongs to. */
enum class Phase : std::uint8_t
{
    Setup,      ///< set-up before the first timed op
    Timed,      ///< a timed op
    Reference,  ///< the untimed pass that computes the modeled metrics
};

/** One unit of work: a timed op, or one cell of a set-up / reference. */
struct Unit
{
    Phase phase;
    std::uint32_t tag;  ///< workload-defined kind (e.g. CROPHE vs MAD cell)
};

/** A work counter reported by a layer, attached to the current unit. */
struct Count
{
    const char *name;  ///< static string: "<layer>.<counter>"
    double value;
    std::uint32_t unit;  ///< 1-based index into Tracer::units(); 0 = none
};

/** One recorded call (or benchmark phase: "op", "sched.cold_fill"). */
struct Span
{
    const char *name;  ///< static string: "<module>::<call>" or a phase
    double startUs;
    double endUs;
    std::uint32_t id;      ///< 1-based
    std::uint32_t parent;  ///< 0 = none
    std::uint32_t unit;    ///< 1-based index into Tracer::units(); 0 = none
};

class Tracer
{
  public:
    explicit Tracer(bool enabled = false);

    void setEnabled(bool on) { enabled_ = on; }

    /** RAII span; a no-op when the tracer is disabled. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;  ///< null when not recording
        std::size_t index_ = 0;
        std::uint32_t savedParent_ = 0;
    };

    /** RAII unit: spans opened inside it belong to a fresh unit. A no-op
     *  when the tracer is disabled. */
    class UnitScope
    {
      public:
        UnitScope(Tracer &tracer, Phase phase, std::uint32_t tag = 0);
        ~UnitScope();
        UnitScope(const UnitScope &) = delete;
        UnitScope &operator=(const UnitScope &) = delete;

      private:
        Tracer *tracer_;  ///< null when not recording
        std::uint32_t savedUnit_ = 0;
    };

    /** Record @p value of counter @p name for the current unit; a no-op
     *  when the tracer is disabled. */
    void count(const char *name, double value);

    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<Count> &counts() const { return counts_; }
    const std::vector<Unit> &units() const { return units_; }

    /** Write all spans as Chrome trace JSON; false when @p path fails. */
    bool writeChromeTrace(const std::string &path,
                          const std::string &process) const;

  private:
    double nowUs() const;

    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<Count> counts_;
    std::vector<Unit> units_;
    std::uint32_t currentParent_ = 0;
    std::uint32_t currentUnit_ = 0;
};

inline constexpr std::uint32_t kAnyTag = 0xffffffffu;

/**
 * Per-unit sum of the durations, in seconds, of spans named any of
 * @p names, over the units of @p phase whose tag is @p tag (any tag for
 * kAnyTag). Units without such a span are skipped, so an empty result
 * means the phase never made the call.
 */
std::vector<double> perUnitSeconds(const Tracer &tracer, Phase phase,
                                   const std::vector<std::string> &names,
                                   std::uint32_t tag = kAnyTag);

/** Per-unit sum of counter @p name over the units of @p phase and @p tag
 *  that recorded it, in unit order. */
std::vector<double> perUnitCounts(const Tracer &tracer, Phase phase,
                                  const std::string &name,
                                  std::uint32_t tag = kAnyTag);

/**
 * Per-unit fraction of the root span's duration covered by its direct
 * children, for the units of @p phase (the "named spans cover the op"
 * check).
 */
std::vector<double> childCoverage(const Tracer &tracer, Phase phase);

}  // namespace perfbench

#endif  // CROPHE_PERFBENCH_TRACER_H_
