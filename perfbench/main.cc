/**
 * @file
 * Single-thread, single-client, closed-loop benchmark of the CROPHE
 * library: cold schedule search, warm-plan simulation and encrypted
 * inference. Run through run.py, which builds this binary and clears the
 * CROPHE_* environment first:
 *
 *   perfbench --workload search-cold|simulate-warm|ckks-infer
 *             --seed N --seconds S --trace 0|1 [--trace-out FILE]
 *
 * A run times ops for S seconds (at least 100, so p90 has ten samples
 * beyond it), with a fixed number of set-ups spread through that time
 * (set-up time is their median; each set-up ends with one untimed warm-up
 * op). The op metrics time each op at the fastest latency the run
 * measured for the same input, since contention from other tenants of the
 * host only ever adds time. Then an untimed reference pass computes the
 * modeled metrics: every model cell simulated once and one fixed-input
 * encrypted inference. With --trace 1 the timed phase is split: the first
 * half runs untraced, then the same ops are replayed traced, and every
 * call into a library layer is recorded as a span. The last stdout line is
 * one JSON object: the end-to-end metrics (--trace 0) or the per-layer
 * metrics (--trace 1). README.md defines every metric.
 */

#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "fhe/kernels/autotune.h"
#include "fhe/kernels/kernels.h"
#include "telemetry/arena_stats.h"
#include "telemetry/stats_registry.h"
#include "tracer.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/** Ops whose outputs form the digest and whose counters the per-layer
 *  count metrics average (one full simulate-warm deck of 36 cells). */
constexpr std::uint64_t kWindowOps = 36;
constexpr std::uint64_t kMinOpsForP90 = 100;
constexpr std::size_t kPlanCacheEntries = 4096;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string traceOut;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            have_seed = end != v.c_str() && *end == '\0';
            if (!have_seed)
                return false;
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' || !(a.seconds > 0.0))
                return false;
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                return false;
            a.trace = v == "1";
        } else if (flag == "--trace-out") {
            a.traceOut = v;
        } else {
            return false;
        }
    }
    return !a.workload.empty() && have_seed && a.seconds > 0.0;
}

/**
 * Fixed integer loop owned by the benchmark: @p reps dependent walks over
 * one random 8 MiB cycle, larger than a core's L2. It tracks the host's
 * memory latency, which moves the search and the key switch when other
 * tenants load the shared cache, and none of the program's code. The
 * table is freed before returning, so it adds nothing to peak_rss_mb.
 */
std::vector<double>
calibrationMs(int reps)
{
    std::vector<std::uint32_t> next(1u << 21);
    for (std::uint32_t i = 0; i < next.size(); ++i)
        next[i] = i;
    crophe::Rng rng(0xca1b);
    // Sattolo's shuffle: one cycle through every entry.
    for (std::uint32_t i = next.size() - 1; i > 0; --i)
        std::swap(next[i], next[rng.nextBounded(i)]);
    std::vector<double> out;
    for (int r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        std::uint32_t p = 0;
        for (std::uint32_t i = 0; i < (1u << 19); ++i)
            p = next[p];
        asm volatile("" : : "r"(p));
        out.push_back(secondsSince(t0) * 1e3);
    }
    return out;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** CPU brand string from CPUID (no file outside the checkout is read). */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i)
        if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    return model;
#else
    return "unknown";
#endif
}

// --- workload drivers ------------------------------------------------------

void
requireOk(bool ok)
{
    if (!ok)
        throw std::runtime_error("warm-up op failed its output check");
}

/** Set-up state and op of one workload. */
class Driver
{
  public:
    virtual ~Driver() = default;
    /** One full set-up, replacing any earlier one, ending with one
     *  untimed warm-up op on a fixed input. */
    virtual void setup(Tracer &tracer) = 0;
    /** Set-ups per run (setup_s is their median): a fixed count, so the
     *  run's work does not depend on host speed; cheap set-ups repeat
     *  more. */
    virtual int setups() const = 0;
    /** Timed op @p i; adds its modeled outputs to @p digest when given. */
    virtual bool op(std::uint64_t i, Tracer &tracer, Digest *digest) = 0;
    /** The input op @p i computes: ops with the same input repeat one
     *  deterministic computation. */
    virtual std::uint64_t input(std::uint64_t i) = 0;
    /** State the reference pass can reuse instead of building its own. */
    virtual std::vector<Cell> *cells() { return nullptr; }
    virtual plan::PlanCache *planCache() { return nullptr; }
    virtual FheBench *fheBench() { return nullptr; }
};

class SearchCold : public Driver
{
  public:
    explicit SearchCold(std::uint64_t seed)
        : points_(searchPopulation()), deck_(seed, points_.size())
    {
    }

    void setup(Tracer &tracer) override
    {
        // The warm-up is a fixed mid-cost point: helr on CROPHE-64 with
        // its Table I buffer, Hybrid r=4, fused key switch.
        for (const SearchPoint &p : points_) {
            if (p.workload == "helr" && p.design == "CROPHE-64@512MB" &&
                p.wopt.rotMode == graph::RotMode::Hybrid &&
                p.wopt.rHyb == 4 &&
                p.wopt.ksDataflow == graph::KsDataflow::Fused) {
                requireOk(checkSearchRun(runSearchPoint(p, tracer)));
                return;
            }
        }
        throw std::runtime_error("warm-up point missing from population");
    }

    int setups() const override { return 9; }

    bool op(std::uint64_t i, Tracer &tracer, Digest *digest) override
    {
        Tracer::UnitScope unit(tracer, Phase::Timed);
        Tracer::Scope span(tracer, "op");
        SearchRun r = runSearchPoint(points_[deck_.at(i)], tracer);
        if (digest != nullptr)
            digestSearchRun(r, *digest);
        return checkSearchRun(r);
    }

    std::uint64_t input(std::uint64_t i) override { return deck_.at(i); }

  private:
    std::vector<SearchPoint> points_;
    Deck deck_;
};

class SimulateWarm : public Driver
{
  public:
    explicit SimulateWarm(std::uint64_t seed) : seed_(seed) {}

    void setup(Tracer &tracer) override
    {
        cells_.clear();
        cache_.reset();
        cells_ = buildCells(tracer, Phase::Setup);
        deck_ = Deck(seed_, cells_.size());
        cache_ = std::make_unique<plan::PlanCache>("", kPlanCacheEntries);
        {
            Tracer::Scope span(tracer, "sched.cold_fill");
            fillCells(cells_, *cache_, tracer, Phase::Setup);
        }
        requireOk(
            checkCellRun(simulateCell(cells_[0], *cache_, tracer)));
    }

    int setups() const override { return 5; }

    bool op(std::uint64_t i, Tracer &tracer, Digest *digest) override
    {
        const Cell &cell = cells_[deck_.at(i)];
        Tracer::UnitScope unit(tracer, Phase::Timed,
                               cell.crophe ? kTagCrophe : kTagMad);
        Tracer::Scope span(tracer, "op");
        CellRun r = simulateCell(cell, *cache_, tracer);
        if (digest != nullptr)
            digestCellRun(r, *digest);
        return checkCellRun(r);
    }

    std::uint64_t input(std::uint64_t i) override { return deck_.at(i); }

    std::vector<Cell> *cells() override { return &cells_; }
    plan::PlanCache *planCache() override { return cache_.get(); }

  private:
    std::uint64_t seed_;
    Deck deck_{0, 1};
    std::vector<Cell> cells_;
    std::unique_ptr<plan::PlanCache> cache_;
};

class CkksInfer : public Driver
{
  public:
    explicit CkksInfer(std::uint64_t seed) : seed_(seed) {}

    void setup(Tracer &tracer) override
    {
        bench_.reset();
        bench_ = buildFheBench(mixSeed(seed_, 0x3e16), tracer, Phase::Setup);
        crophe::Rng rng(0x3a53);
        requireOk(checkInferRun(
            runInference(*bench_, 0x3a54, drawVector(rng, kDim), tracer)));
    }

    int setups() const override { return 5; }

    bool op(std::uint64_t i, Tracer &tracer, Digest *digest) override
    {
        std::uint64_t op_seed = mixSeed(seed_, i);
        crophe::Rng rng(op_seed);
        std::vector<double> x = drawVector(rng, kDim);
        Tracer::UnitScope unit(tracer, Phase::Timed);
        Tracer::Scope span(tracer, "op");
        InferRun r = runInference(*bench_, op_seed, x, tracer);
        if (digest != nullptr)
            digestInferRun(r, *digest);
        return checkInferRun(r);
    }

    /** Each op draws its own features and encryption randomness. */
    std::uint64_t input(std::uint64_t i) override { return i; }

    FheBench *fheBench() override { return bench_.get(); }

  private:
    std::uint64_t seed_;
    std::unique_ptr<FheBench> bench_;
};

std::unique_ptr<Driver>
makeDriver(const std::string &name, std::uint64_t seed)
{
    if (name == "search-cold")
        return std::make_unique<SearchCold>(seed);
    if (name == "simulate-warm")
        return std::make_unique<SimulateWarm>(seed);
    if (name == "ckks-infer")
        return std::make_unique<CkksInfer>(seed);
    return nullptr;
}

// --- phases ----------------------------------------------------------------

struct Loop
{
    std::vector<double> latencyMs;
    std::vector<std::uint64_t> inputs;  ///< Driver::input of each op
    std::vector<double> setupSeconds;
    std::uint64_t ok = 0;
    double wallSeconds = 0.0;  ///< timed time: op latencies summed
    Digest digest;             ///< outputs of ops [0, kWindowOps)

    std::uint64_t attempted() const { return latencyMs.size(); }

    /** Run and time op attempted() (its output check decides ok). */
    void runOp(Driver &d, Tracer &tracer)
    {
        const std::uint64_t i = attempted();
        auto t0 = Clock::now();
        bool passed = false;
        try {
            passed = d.op(i, tracer, i < kWindowOps ? &digest : nullptr);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "op %llu failed: %s\n",
                         static_cast<unsigned long long>(i), e.what());
        }
        double secs = secondsSince(t0);
        latencyMs.push_back(secs * 1e3);
        inputs.push_back(d.input(i));
        wallSeconds += secs;
        ok += passed ? 1 : 0;
    }
};

/**
 * Closed loop over ops 0, 1, … for @p seconds of timed time, at least
 * @p min_ops of them, with the driver's set-ups spread through it: set-up
 * k (traced when @p trace_setups) runs before the block of ops that ends
 * at (k + 1) / K of the time, so setup_s samples the same host states as
 * the ops instead of only the first seconds of the run. Every op depends
 * only on its index and the seed, never on which set-up it follows.
 */
Loop
measure(Driver &d, Tracer &tracer, bool trace_setups, double seconds,
        std::uint64_t min_ops)
{
    Loop loop;
    const int setups = d.setups();
    for (int k = 0; k < setups; ++k) {
        tracer.setEnabled(trace_setups);
        auto t0 = Clock::now();
        {
            Tracer::UnitScope unit(tracer, Phase::Setup);
            d.setup(tracer);
        }
        loop.setupSeconds.push_back(secondsSince(t0));
        tracer.setEnabled(false);
        const double block_end = seconds * (k + 1) / setups;
        const bool last = k + 1 == setups;
        while (loop.wallSeconds < block_end ||
               (last && loop.attempted() < min_ops))
            loop.runOp(d, tracer);
    }
    return loop;
}

struct Reference
{
    ModelReport model;
    double precisionBits = 0.0;
    std::uint64_t fheDigest = 0;
};

/** The untimed pass behind the modeled metrics; reuses the driver's
 *  cells or FHE keys when it has them. */
Reference
referencePass(Driver &d, Tracer &tracer)
{
    Reference ref;
    std::vector<Cell> own_cells;
    std::unique_ptr<plan::PlanCache> own_cache;
    std::vector<Cell> *cells = d.cells();
    plan::PlanCache *cache = d.planCache();
    if (cells == nullptr) {
        Tracer::UnitScope unit(tracer, Phase::Reference);
        own_cells = buildCells(tracer, Phase::Reference);
        own_cache = std::make_unique<plan::PlanCache>("", kPlanCacheEntries);
        Tracer::Scope span(tracer, "sched.cold_fill");
        fillCells(own_cells, *own_cache, tracer, Phase::Reference);
        cells = &own_cells;
        cache = own_cache.get();
    }
    ref.model = modelReport(*cells, *cache, tracer, Phase::Reference);

    std::unique_ptr<FheBench> own_bench;
    FheBench *bench = d.fheBench();
    if (bench == nullptr) {
        own_bench = buildFheBench(0, tracer, Phase::Reference);
        bench = own_bench.get();
    }
    Digest digest;
    ref.precisionBits =
        precisionBits(*bench, tracer, Phase::Reference, digest);
    ref.fheDigest = digest.value();
    return ref;
}

// --- reporting -------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
}

const Phase kPhaseOrder[] = {Phase::Timed, Phase::Setup, Phase::Reference};

/** Per-unit seconds of the first phase (timed ops, then set-up, then the
 *  reference pass) that made one of @p names. */
std::vector<double>
layerSeconds(const Tracer &tracer, const std::vector<std::string> &names,
             std::uint32_t tag = kAnyTag)
{
    for (Phase p : kPhaseOrder) {
        auto v = perUnitSeconds(tracer, p, names, tag);
        if (!v.empty())
            return v;
    }
    return {};
}

/** Per-unit values of counter @p name over the first kWindowOps units of
 *  the first phase that recorded it. */
std::vector<double>
layerCounts(const Tracer &tracer, const std::string &name)
{
    for (Phase p : kPhaseOrder) {
        auto v = perUnitCounts(tracer, p, name);
        if (!v.empty()) {
            v.resize(std::min<std::size_t>(v.size(), kWindowOps));
            return v;
        }
    }
    return {};
}

double
medianOr0(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : median(v);
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : sum(v) / double(v.size());
}

std::vector<Metric>
perLayerMetrics(const Tracer &tracer, const Reference &ref,
                double calib_ms, double overhead_frac)
{
    auto ms = [&](std::vector<std::string> names,
                  std::uint32_t tag = kAnyTag) {
        return medianOr0(layerSeconds(tracer, names, tag)) * 1e3;
    };
    auto analyzed = layerCounts(tracer, "sched.analyzed");
    auto memo_hits = layerCounts(tracer, "sched.memo_hits");
    auto model_cycles = layerCounts(tracer, "sched.model_cycles");
    double memo_total = sum(memo_hits) + sum(analyzed);

    // Hits / lookups and time / events over every unit of the phase that
    // made the calls (plan::PlanCache reads, sim::simulateSchedule).
    double hits = 0, lookups = 0, sim_s = 0, events = 0;
    for (Phase p : kPhaseOrder) {
        auto l = perUnitCounts(tracer, p, "plan.lookups");
        if (l.empty())
            continue;
        hits = sum(perUnitCounts(tracer, p, "plan.hits"));
        lookups = sum(l);
        sim_s = sum(perUnitSeconds(tracer, p, {"sim::simulateSchedule"}));
        events = sum(perUnitCounts(tracer, p, "sim.events"));
        break;
    }

    crophe::telemetry::StatsRegistry registry;
    crophe::telemetry::registerArenaStats(&registry);

    return {
        {"graph.build_ms", ms({"graph::buildWorkload"}), "ms/op"},
        {"sched.search_ms", ms({"sched::scheduleWorkload"}), "ms/op"},
        {"sched.windows_analyzed", mean(analyzed), "count/op"},
        {"sched.memo_hit_frac",
         memo_total > 0 ? sum(memo_hits) / memo_total : 0.0, "ratio"},
        {"sched.pruned_windows", mean(layerCounts(tracer, "sched.pruned")),
         "count/op"},
        {"sched.model_cycles",
         model_cycles.empty() ? 0.0 : geomean(model_cycles), "cycles"},
        {"sched.cold_fill_s",
         medianOr0(layerSeconds(tracer, {"sched.cold_fill"})), "s"},
        {"plan.inserts", mean(layerCounts(tracer, "plan.inserts")),
         "count/op"},
        {"plan.hit_ms", ms({"sched::scheduleGraph"}), "ms/op"},
        {"plan.hit_frac", lookups > 0 ? hits / lookups : 0.0, "ratio"},
        {"sim.simulate_ms", ms({"sim::simulateSchedule"}), "ms/op"},
        {"sim.simulate_ms.crophe", ms({"sim::simulateSchedule"}, kTagCrophe),
         "ms/op"},
        {"sim.simulate_ms.mad", ms({"sim::simulateSchedule"}, kTagMad),
         "ms/op"},
        {"sim.events", mean(layerCounts(tracer, "sim.events")), "count/op"},
        {"sim.ns_per_event", events > 0 ? sim_s / events * 1e9 : 0.0, "ns"},
        {"sim.model_ratio.crophe", ref.model.ratioCrophe, "ratio"},
        {"sim.model_ratio.mad", ref.model.ratioMad, "ratio"},
        {"sim.pick_regret", ref.model.pickRegret, "ratio"},
        {"sim.dram_row_hit", ref.model.dramRowHit, "ratio"},
        {"fhe.keygen_s",
         medianOr0(layerSeconds(tracer,
                                {"fhe::FheContext", "fhe::KeyGenerator"})),
         "s"},
        {"fhe.autotune_tuned",
         double(crophe::fhe::kernels::autotuner().stats().tuned), "count"},
        {"fhe.encrypt_ms",
         ms({"fhe::Encoder::encodeReal", "fhe::Evaluator::encrypt"}),
         "ms/op"},
        {"fhe.matvec_ms", ms({"fhe::ptMatVecMult"}), "ms/op"},
        {"fhe.poly_ms", ms({"fhe::evalPolyHorner"}), "ms/op"},
        {"fhe.decrypt_ms",
         ms({"fhe::Evaluator::decrypt", "fhe::Encoder::decode"}), "ms/op"},
        {"fhe.ntt_limbs", mean(layerCounts(tracer, "fhe.ntt_limbs")),
         "count/op"},
        {"common.arena_peak_mb",
         registry.value("fhe.arena.peakBytes") / (1024.0 * 1024.0), "MB"},
        {"host.calib_ms", calib_ms, "ms"},
        {"trace.overhead_frac", overhead_frac, "ratio"},
        {"trace.span_cover", medianOr0(childCoverage(tracer, Phase::Timed)),
         "ratio"},
    };
}

}  // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload search-cold|simulate-warm|"
                     "ckks-infer --seed N --seconds S --trace 0|1 "
                     "[--trace-out FILE]\n",
                     argv[0]);
        return 2;
    }
    std::unique_ptr<Driver> driver = makeDriver(args.workload, args.seed);
    if (driver == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    crophe::ThreadPool::setGlobalThreads(1);
    crophe::setVerbose(false);

    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("# host backend=%s pool=%u build=%s cpu=\"%s\"\n",
                crophe::fhe::kernels::backendName(
                    crophe::fhe::kernels::activeBackend()),
                crophe::ThreadPool::globalThreads(), PERFBENCH_BUILD_TYPE,
                cpuModel().c_str());
    std::fflush(stdout);

    std::vector<double> calib = calibrationMs(5);
    double calib_start = median(calib);

    // With --trace 1 the untraced phase is half as long and its ops are
    // then replayed traced, so both halves run identical inputs.
    Tracer tracer(args.trace);
    Loop loop;
    try {
        loop = measure(*driver, tracer, args.trace,
                       args.trace ? args.seconds / 2 : args.seconds,
                       args.trace ? kWindowOps : kMinOpsForP90);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "set-up failed: %s\n", e.what());
        return 1;
    }
    Loop traced;
    if (args.trace) {
        tracer.setEnabled(true);
        while (traced.attempted() < loop.attempted())
            traced.runOp(*driver, tracer);
    }
    double rss_mb = peakRssMb();

    Reference ref;
    try {
        ref = referencePass(*driver, tracer);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "reference pass failed: %s\n", e.what());
        return 1;
    }
    std::vector<double> calib_end_ms = calibrationMs(5);
    double calib_end = median(calib_end_ms);
    calib.insert(calib.end(), calib_end_ms.begin(), calib_end_ms.end());

    const std::uint64_t attempted = loop.attempted() + traced.attempted();
    const std::uint64_t ok = loop.ok + traced.ok;
    const bool correct = ok == attempted && ref.model.ok &&
                         ref.precisionBits >= -std::log2(kSlotTolerance);

    const std::vector<double> &setup_s = loop.setupSeconds;
    const std::vector<double> &raw = loop.latencyMs;
    // The op metrics time every op at its input's fastest repeat in the
    // run; the raw latencies, which carry the host's contention, stay in
    // the header.
    const std::vector<double> lat = fastestPerInput(raw, loop.inputs);
    const double ops_per_s = double(lat.size()) / (sum(lat) / 1e3);
    std::printf("# setup_s runs:");
    for (double s : setup_s)
        std::printf(" %.4f", s);
    std::printf("\n# ops n=%zu inputs=%zu ok=%llu wall=%.3f s raw "
                "ops_per_s=%.3f p50=%.3f ms",
                raw.size(),
                std::set<std::uint64_t>(loop.inputs.begin(),
                                        loop.inputs.end())
                    .size(),
                static_cast<unsigned long long>(loop.ok), loop.wallSeconds,
                double(raw.size()) / loop.wallSeconds, percentile(raw, 50));
    unsigned tail = tailPercentile(raw.size());
    if (tail > 0)
        std::printf(" p%u=%.3f ms (highest with ten beyond)", tail,
                    percentile(raw, tail));
    std::printf("\n# digest ops[0,%llu)=%016llx model=%016llx "
                "inference=%016llx\n",
                static_cast<unsigned long long>(kWindowOps),
                static_cast<unsigned long long>(loop.digest.value()),
                static_cast<unsigned long long>(ref.model.digest),
                static_cast<unsigned long long>(ref.fheDigest));
    for (const std::string &pick : ref.model.picks)
        std::printf("# pick %s\n", pick.c_str());
    std::printf("# host.calib_ms start=%.3f end=%.3f\n", calib_start,
                calib_end);

    if (args.trace) {
        double overhead = 1.0 - loop.wallSeconds / traced.wallSeconds;
        if (!args.traceOut.empty() &&
            !tracer.writeChromeTrace(args.traceOut,
                                     "perfbench " + args.workload))
            std::fprintf(stderr, "cannot write %s\n",
                         args.traceOut.c_str());
        printJson(correct, attempted, attempted - ok,
                  perLayerMetrics(tracer, ref, median(calib), overhead));
    } else {
        std::vector<Metric> metrics = {
            {"setup_s", median(setup_s), "s"},
            {"ops_per_s", ops_per_s, "1/s"},
            {"op_p50_ms", percentile(lat, 50), "ms"},
            {"op_p90_ms", percentile(lat, 90), "ms"},
            {"peak_rss_mb", rss_mb, "MB"},
            {"ok_frac", double(loop.ok) / double(lat.size()), "ratio"},
            {"sim_cycles", ref.model.simCycles, "cycles"},
            {"model_err", ref.model.modelErr, "ratio"},
            {"precision_bits", ref.precisionBits, "bits"},
        };
        printJson(correct, attempted, attempted - ok, metrics);
    }
    return 0;
}
