#include "workloads.h"

#include <cmath>
#include <limits>

#include "baselines/baseline.h"
#include "common/rng.h"
#include "fhe/chebyshev.h"
#include "fhe/ntt.h"
#include "sched/cost_model.h"
#include "sched/mad.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "telemetry/search_telemetry.h"

namespace perfbench {

namespace {

const char *const kWorkloads[] = {"bootstrap", "helr", "resnet20"};

const graph::KsDataflow kKsDataflows[] = {
    graph::KsDataflow::Fused, graph::KsDataflow::OutputStationary,
    graph::KsDataflow::ReorderedModUp};

/** sigmoid(t) ≈ 0.5 + 0.197 t − 0.004 t³ (examples/private_inference). */
const std::vector<double> kSigmoid = {0.5, 0.197, 0.0, -0.004};

constexpr std::uint64_t kKeySeed = 77;
constexpr std::uint64_t kReferenceSeed = 0x5eedf00dull;
constexpr std::uint32_t kN1 = 8, kN2 = 4, kRHyb = 4;

/** Report one workload search's work counters for the current unit. */
void
countSearch(Tracer &tracer, const crophe::telemetry::SearchTelemetry &search,
            double cycles, std::uint64_t inserts)
{
    tracer.count("sched.analyzed", double(search.analyzed()));
    tracer.count("sched.memo_hits", double(search.memoHits()));
    tracer.count("sched.pruned", double(search.prunedWindows()));
    tracer.count("sched.model_cycles", cycles);
    tracer.count("plan.inserts", double(inserts));
}

}  // namespace

// --- op sequences ----------------------------------------------------------

std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a ^ (b * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Deck::Deck(std::uint64_t seed, std::uint64_t size) : seed_(seed), size_(size)
{
}

std::uint64_t
Deck::at(std::uint64_t i)
{
    std::uint64_t block = i / size_;
    if (block != block_) {
        perm_.resize(size_);
        for (std::uint64_t k = 0; k < size_; ++k)
            perm_[k] = k;
        crophe::Rng rng(mixSeed(seed_, block));
        for (std::uint64_t k = size_ - 1; k > 0; --k)
            std::swap(perm_[k], perm_[rng.nextBounded(k + 1)]);
        block_ = block;
    }
    return perm_[i % size_];
}

// --- search-cold -----------------------------------------------------------

std::vector<SearchPoint>
searchPopulation()
{
    struct Design
    {
        std::string name;
        hw::HwConfig cfg;
        graph::FheParams params;
    };
    std::vector<Design> designs;
    for (const char *name : {"CROPHE-64", "CROPHE-36"}) {
        crophe::baselines::DesignSpec d =
            crophe::baselines::designByName(name);
        // Table I buffer, then the Figure 10 quarter / eighth size.
        double reduced = d.cfg.wordBits == 64 ? 64.0 : 45.0;
        for (double mb : {d.cfg.sramMB, reduced})
            designs.push_back({d.name + "@" + std::to_string(int(mb)) + "MB",
                               hw::withSramMB(d.cfg, mb), d.params});
    }
    struct Scheme
    {
        graph::RotMode mode;
        std::uint32_t rHyb;
    };
    const Scheme schemes[] = {
        {graph::RotMode::MinKs, 0},    {graph::RotMode::Hoisting, 0},
        {graph::RotMode::Hybrid, 2},   {graph::RotMode::Hybrid, 4},
        {graph::RotMode::Hybrid, 8},   {graph::RotMode::Hybrid, 16},
        {graph::RotMode::TripleHoisted, 0}};

    std::vector<SearchPoint> points;
    for (const char *wl : kWorkloads)
        for (const Design &d : designs)
            for (const Scheme &s : schemes)
                for (graph::KsDataflow ks : kKsDataflows) {
                    SearchPoint p;
                    p.workload = wl;
                    p.wopt.rotMode = s.mode;
                    p.wopt.rHyb = s.rHyb;
                    p.wopt.ksDataflow = ks;
                    p.design = d.name;
                    p.cfg = d.cfg;
                    p.params = d.params;
                    points.push_back(std::move(p));
                }
    return points;
}

SearchRun
runSearchPoint(const SearchPoint &p, Tracer &tracer)
{
    graph::Workload w;
    {
        Tracer::Scope s(tracer, "graph::buildWorkload");
        w = graph::buildWorkload(p.workload, p.params, p.wopt);
    }
    plan::PlanCache cache;
    crophe::telemetry::SearchTelemetry search;
    sched::SchedOptions opt;
    opt.planCache = &cache;
    opt.search = &search;
    sched::WorkloadResult res;
    {
        Tracer::Scope s(tracer, "sched::scheduleWorkload");
        res = sched::scheduleWorkload(w, p.cfg, opt);
    }
    SearchRun r;
    r.degraded = res.degraded;
    r.cycles = res.stats.cycles;
    r.flops = res.stats.flops;
    r.graphFlops = w.totalFlops();
    r.dramWords = res.stats.dramWords;
    r.analyzed = search.analyzed();
    r.memoHits = search.memoHits();
    r.pruned = search.prunedWindows();
    r.inserts = cache.stats().insertions;
    countSearch(tracer, search, r.cycles, r.inserts);
    return r;
}

bool
checkSearchRun(const SearchRun &r)
{
    return !r.degraded && std::isfinite(r.cycles) && r.cycles > 0.0 &&
           r.flops >= r.graphFlops;
}

void
digestSearchRun(const SearchRun &r, Digest &d)
{
    d.add(r.cycles);
    d.add(r.flops);
    d.add(r.dramWords);
    d.add(r.analyzed);
    d.add(r.memoHits);
    d.add(r.pruned);
    d.add(r.inserts);
}

// --- simulate-warm ---------------------------------------------------------

std::vector<Cell>
buildCells(Tracer &tracer, Phase phase)
{
    std::vector<Cell> cells;
    std::size_t pairs = 0;
    auto add = [&](Cell c, const graph::FheParams &params,
                   const std::string &wl,
                   const graph::WorkloadOptions &wopt) {
        Tracer::UnitScope unit(tracer, phase, c.crophe ? kTagCrophe : kTagMad);
        Tracer::Scope s(tracer, "graph::buildWorkload");
        c.workload = graph::buildWorkload(wl, params, wopt);
        cells.push_back(std::move(c));
    };

    std::vector<crophe::baselines::DesignSpec> mad;
    for (auto group : {crophe::baselines::designs64(),
                       crophe::baselines::designs36()})
        for (auto &d : group)
            if (d.mad)
                mad.push_back(d);
    for (const auto &d : mad)
        for (const char *wl : kWorkloads) {
            Cell c;
            c.label = d.name + "(" + std::to_string(d.cfg.wordBits) +
                      "b)/" + wl;
            c.pair = pairs++;
            c.cfg = d.cfg;
            c.opt = sched::madOptions();
            add(std::move(c), d.params, wl, sched::madWorkloadOptions());
        }

    for (const char *name : {"CROPHE-64", "CROPHE-36"}) {
        crophe::baselines::DesignSpec d =
            crophe::baselines::designByName(name);
        for (const char *wl : kWorkloads) {
            std::size_t pair = pairs++;
            for (graph::KsDataflow ks : kKsDataflows) {
                Cell c;
                c.label = d.name + "/" + wl + "/" + graph::ksDataflowName(ks);
                c.crophe = true;
                c.pair = pair;
                c.cfg = d.cfg;
                c.opt.crossOpDataflow = true;
                c.opt.nttDecomp = d.nttDecomp;
                graph::WorkloadOptions wopt;
                wopt.rotMode = graph::RotMode::Hybrid;
                wopt.rHyb = kRHyb;
                wopt.ksDataflow = ks;
                add(std::move(c), d.params, wl, wopt);
            }
        }
    }
    return cells;
}

std::size_t
pairCount(const std::vector<Cell> &cells)
{
    return cells.empty() ? 0 : cells.back().pair + 1;
}

void
fillCells(std::vector<Cell> &cells, plan::PlanCache &cache, Tracer &tracer,
          Phase phase)
{
    for (Cell &c : cells) {
        Tracer::UnitScope unit(tracer, phase, c.crophe ? kTagCrophe : kTagMad);
        crophe::telemetry::SearchTelemetry search;
        sched::SchedOptions opt = c.opt;
        opt.planCache = &cache;
        opt.search = &search;
        std::uint64_t inserts = cache.stats().insertions;
        sched::WorkloadResult res;
        {
            Tracer::Scope s(tracer, "sched::scheduleWorkload");
            res = sched::scheduleWorkload(c.workload, c.cfg, opt);
        }
        c.modelWorkloadCycles = res.stats.cycles;
        countSearch(tracer, search, res.stats.cycles,
                    cache.stats().insertions - inserts);
    }
}

CellRun
simulateCell(const Cell &cell, plan::PlanCache &cache, Tracer &tracer)
{
    crophe::telemetry::SearchTelemetry search;
    sched::SchedOptions opt = cell.opt;
    opt.planCache = &cache;
    opt.search = &search;
    CellRun r;
    for (const auto &seg : cell.workload.segments) {
        sched::Schedule s;
        {
            Tracer::Scope span(tracer, "sched::scheduleGraph");
            s = sched::scheduleGraph(seg.graph, cell.cfg, opt);
        }
        crophe::sim::SimStats st;
        {
            Tracer::Scope span(tracer, "sim::simulateSchedule");
            st = crophe::sim::simulateSchedule(s, cell.cfg);
        }
        ++r.segments;
        r.simCycles += st.cycles;
        r.modelCycles += s.stats.cycles;
        if (st.flops != s.stats.flops)
            ++r.flopMismatches;
        r.events += st.events;
        r.dramRowHits += st.dramRowHits;
        r.dramRowMisses += st.dramRowMisses;
    }
    r.planHits = search.planHits();
    tracer.count("plan.hits", double(r.planHits));
    tracer.count("plan.lookups",
                 double(search.planHits() + search.planMisses()));
    tracer.count("sim.events", double(r.events));
    return r;
}

bool
checkCellRun(const CellRun &r)
{
    return r.segments > 0 && r.planHits == r.segments &&
           r.flopMismatches == 0 && std::isfinite(r.simCycles) &&
           r.simCycles > 0.0 && std::isfinite(r.modelCycles) &&
           r.modelCycles > 0.0;
}

void
digestCellRun(const CellRun &r, Digest &d)
{
    d.add(r.simCycles);
    d.add(r.modelCycles);
    d.add(r.events);
    d.add(r.dramRowHits);
    d.add(r.dramRowMisses);
}

ModelReport
modelReport(const std::vector<Cell> &cells, plan::PlanCache &cache,
            Tracer &tracer, Phase phase)
{
    ModelReport rep;
    Digest digest;
    std::vector<CellRun> runs;
    for (const Cell &c : cells) {
        Tracer::UnitScope unit(tracer, phase, c.crophe ? kTagCrophe : kTagMad);
        runs.push_back(simulateCell(c, cache, tracer));
        rep.ok = rep.ok && checkCellRun(runs.back());
        digestCellRun(runs.back(), digest);
    }
    if (!rep.ok)
        return rep;  // a failed cell has no meaningful cycles

    std::vector<double> sim, model, ratio_crophe, ratio_mad;
    double row_hits = 0.0, row_total = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        sim.push_back(runs[i].simCycles);
        model.push_back(runs[i].modelCycles);
        (cells[i].crophe ? ratio_crophe : ratio_mad)
            .push_back(runs[i].simCycles / runs[i].modelCycles);
        row_hits += double(runs[i].dramRowHits);
        row_total += double(runs[i].dramRowHits + runs[i].dramRowMisses);
    }

    // Per pair: the cell the cost model picks (lowest modeled workload
    // cycles, first wins on a tie, as chooseRotationScheme breaks them).
    std::vector<double> picked_sim;
    std::vector<std::vector<double>> crophe_sims;
    std::vector<std::size_t> crophe_picks;
    for (std::size_t pair = 0; pair < pairCount(cells); ++pair) {
        std::vector<std::size_t> members;
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (cells[i].pair == pair)
                members.push_back(i);
        std::size_t pick = 0, best_sim = 0;
        for (std::size_t k = 1; k < members.size(); ++k) {
            if (cells[members[k]].modelWorkloadCycles <
                cells[members[pick]].modelWorkloadCycles)
                pick = k;
            if (sim[members[k]] < sim[members[best_sim]])
                best_sim = k;
        }
        picked_sim.push_back(sim[members[pick]]);
        if (!cells[members[0]].crophe)
            continue;
        std::vector<double> s;
        for (std::size_t m : members)
            s.push_back(sim[m]);
        crophe_sims.push_back(s);
        crophe_picks.push_back(pick);
        const std::string &label = cells[members[0]].label;
        rep.picks.push_back(
            label.substr(0, label.rfind('/')) +
            " model=" + graph::ksDataflowName(kKsDataflows[pick]) +
            " sim-best=" + graph::ksDataflowName(kKsDataflows[best_sim]));
    }

    rep.simCycles = geomean(picked_sim);
    rep.modelErr = modelErr(sim, model);
    rep.pickRegret = pickRegret(crophe_sims, crophe_picks);
    rep.ratioCrophe = geomean(ratio_crophe);
    rep.ratioMad = geomean(ratio_mad);
    rep.dramRowHit = row_total > 0.0 ? row_hits / row_total : 0.0;
    rep.digest = digest.value();
    return rep;
}

// --- ckks-infer ------------------------------------------------------------

std::vector<double>
drawVector(crophe::Rng &rng, std::uint32_t n)
{
    std::vector<double> v(n);
    for (double &e : v)
        e = rng.nextDouble() - 0.5;
    return v;
}

namespace {

std::vector<std::vector<double>>
drawMatrix(std::uint64_t seed)
{
    crophe::Rng rng(seed);
    std::vector<std::vector<double>> w;
    for (std::uint32_t i = 0; i < kDim; ++i)
        w.push_back(drawVector(rng, kDim));
    return w;
}

/** Largest |got - want| over all slots (infinity on a size mismatch). */
double
maxSlotError(const InferRun &r)
{
    if (r.got.empty() || r.got.size() != r.want.size())
        return std::numeric_limits<double>::infinity();
    double err = 0.0;
    for (std::size_t i = 0; i < r.got.size(); ++i)
        err = std::max(err, std::abs(r.got[i] - r.want[i]));
    return err;
}

InferRun
infer(const FheBench &b, fhe::Evaluator &eval,
      const std::vector<std::vector<double>> &w,
      const std::vector<std::vector<double>> &diags,
      const std::vector<double> &x, Tracer &tracer)
{
    const std::uint64_t slots = b.ctx->n() / 2;
    const std::uint64_t ntt_before = fhe::nttLimbTransforms();
    std::vector<double> tiled(slots);
    for (std::uint64_t i = 0; i < slots; ++i)
        tiled[i] = x[i % kDim];

    fhe::Plaintext pt;
    {
        Tracer::Scope s(tracer, "fhe::Encoder::encodeReal");
        pt = eval.encoder().encodeReal(tiled, b.ctx->maxLevel());
    }
    fhe::Ciphertext ct;
    {
        Tracer::Scope s(tracer, "fhe::Evaluator::encrypt");
        ct = eval.encrypt(pt, b.pk);
    }
    fhe::Ciphertext wx;
    {
        Tracer::Scope s(tracer, "fhe::ptMatVecMult");
        wx = fhe::ptMatVecMult(eval, ct, diags, kN1, kN2,
                               fhe::RotStrategy::Hybrid, kRHyb, b.rot);
    }
    fhe::Ciphertext y;
    {
        Tracer::Scope s(tracer, "fhe::evalPolyHorner");
        y = fhe::evalPolyHorner(eval, wx, kSigmoid, b.rlk);
    }
    fhe::Plaintext out;
    {
        Tracer::Scope s(tracer, "fhe::Evaluator::decrypt");
        out = eval.decrypt(y, b.keygen->secretKey());
    }
    std::vector<fhe::Cplx> slots_out;
    {
        Tracer::Scope s(tracer, "fhe::Encoder::decode");
        slots_out = eval.encoder().decode(out);
    }

    InferRun r;
    r.nttLimbs = fhe::nttLimbTransforms() - ntt_before;
    tracer.count("fhe.ntt_limbs", double(r.nttLimbs));
    std::vector<double> wx_ref = fhe::matVecRef(w, x);
    for (std::uint64_t i = 0; i < slots_out.size(); ++i) {
        r.got.push_back(slots_out[i].real());
        r.want.push_back(fhe::evalPolyRef(kSigmoid, wx_ref[i % kDim]));
    }
    return r;
}

}  // namespace

std::unique_ptr<FheBench>
buildFheBench(std::uint64_t weight_seed, Tracer &tracer, Phase phase)
{
    Tracer::UnitScope unit(tracer, phase);
    auto b = std::make_unique<FheBench>();
    fhe::FheContextParams params;
    params.n = 1 << 13;
    params.levels = 8;
    params.alpha = 3;
    {
        Tracer::Scope s(tracer, "fhe::FheContext");
        b->ctx = std::make_unique<fhe::FheContext>(params);
    }
    {
        Tracer::Scope s(tracer, "fhe::KeyGenerator");
        b->keygen = std::make_unique<fhe::KeyGenerator>(*b->ctx, kKeySeed);
        b->pk = b->keygen->makePublicKey();
        b->rlk = b->keygen->makeRelinKey();
        for (std::int64_t r : fhe::requiredRotations(
                 kN1, kN2, fhe::RotStrategy::Hybrid, kRHyb))
            b->rot.rot.emplace(r, b->keygen->makeRotationKey(r));
    }
    b->w = drawMatrix(weight_seed);
    {
        Tracer::Scope s(tracer, "fhe::matrixDiagonals");
        b->diags = fhe::matrixDiagonals(b->w, b->ctx->n() / 2);
    }
    return b;
}

InferRun
runInference(const FheBench &b, std::uint64_t eval_seed,
             const std::vector<double> &x, Tracer &tracer)
{
    fhe::Evaluator eval(*b.ctx, eval_seed);
    return infer(b, eval, b.w, b.diags, x, tracer);
}

bool
checkInferRun(const InferRun &r)
{
    return maxSlotError(r) <= kSlotTolerance;
}

void
digestInferRun(const InferRun &r, Digest &d)
{
    for (double v : r.got)
        d.add(v);
    d.add(r.nttLimbs);
}

double
precisionBits(const FheBench &b, Tracer &tracer, Phase phase, Digest &d)
{
    Tracer::UnitScope unit(tracer, phase);
    fhe::Evaluator eval(*b.ctx, kReferenceSeed);
    auto w = drawMatrix(kReferenceSeed);
    auto diags = fhe::matrixDiagonals(w, b.ctx->n() / 2);
    crophe::Rng rng(kReferenceSeed + 1);
    InferRun r = infer(b, eval, w, diags, drawVector(rng, kDim), tracer);
    digestInferRun(r, d);
    return -std::log2(maxSlotError(r));
}

}  // namespace perfbench
