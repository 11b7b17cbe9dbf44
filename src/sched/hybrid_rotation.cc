#include "sched/hybrid_rotation.h"

#include <limits>
#include <memory>

#include "common/error.h"
#include "common/parallel.h"
#include "sched/enumerator.h"
#include "sched/scheduler.h"
#include "telemetry/search_telemetry.h"

namespace crophe::sched {

std::vector<u32>
rHybCandidates(u32 n1_max)
{
    std::vector<u32> out;
    for (u32 r = 2; r <= n1_max; r <<= 1)
        out.push_back(r);
    return out;
}

namespace {

/** Search-label spelling of a rotation candidate (also the CLI name). */
std::string
rotLabel(graph::RotMode mode, u32 r_hyb)
{
    switch (mode) {
      case graph::RotMode::MinKs: return "minks";
      case graph::RotMode::Hoisting: return "hoisting";
      case graph::RotMode::Hybrid:
        return "hybrid r=" + std::to_string(r_hyb);
      case graph::RotMode::TripleHoisted: return "triple";
    }
    return "?";
}

/** Comma-split @p spec and map each token through @p bit_of ("all" = all
 *  bits of @p all_mask); user input, so unknown tokens throw. */
template <typename BitOf>
u32
parseMask(const std::string &flag, const std::string &spec, u32 all_mask,
          BitOf bit_of)
{
    u32 mask = 0;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string token = spec.substr(pos, comma - pos);
        if (!token.empty()) {
            if (token == "all")
                mask |= all_mask;
            else
                mask |= bit_of(token);
        }
        pos = comma + 1;
    }
    if (mask == 0)
        throw RecoverableError(flag + ": empty filter '" + spec + "'");
    return mask;
}

}  // namespace

u32
parseRotSchemes(const std::string &spec)
{
    return parseMask("--rot-schemes", spec, 0xF, [](const std::string &t) {
        if (t == "minks")
            return 1u << static_cast<u32>(graph::RotMode::MinKs);
        if (t == "hoisting")
            return 1u << static_cast<u32>(graph::RotMode::Hoisting);
        if (t == "hybrid")
            return 1u << static_cast<u32>(graph::RotMode::Hybrid);
        if (t == "triple")
            return 1u << static_cast<u32>(graph::RotMode::TripleHoisted);
        // User input (CLI filter), not an invariant: recoverable.
        throw RecoverableError("--rot-schemes: unknown scheme '" + t +
                               "' (want minks|hoisting|hybrid|triple|all)");
    });
}

u32
parseKsDataflows(const std::string &spec)
{
    return parseMask(
        "--ks-dataflows", spec, 0x7, [](const std::string &t) {
            if (t == "fused")
                return 1u << static_cast<u32>(graph::KsDataflow::Fused);
            if (t == "ostat")
                return 1u
                       << static_cast<u32>(
                              graph::KsDataflow::OutputStationary);
            if (t == "reordup")
                return 1u
                       << static_cast<u32>(graph::KsDataflow::ReorderedModUp);
            throw RecoverableError("--ks-dataflows: unknown dataflow '" + t +
                                   "' (want fused|ostat|reordup|all)");
        });
}

RotationChoice
chooseRotationScheme(const std::string &workload,
                     const graph::FheParams &params, const hw::HwConfig &cfg,
                     const SchedOptions &opt, bool allow_hybrid)
{
    RotationChoice best;
    best.result.stats.cycles = std::numeric_limits<double>::infinity();

    // The (rotation scheme × ks dataflow) candidates are independent
    // searches. Evaluate them in parallel into per-candidate slots, then
    // reduce on this thread in candidate order — the sequential sweep's
    // first-wins tie-breaking, bit for bit. Dataflows iterate innermost
    // with Fused first, so on a tie the legacy (per-scheme Fused) winner
    // still wins.
    struct Candidate
    {
        graph::RotMode mode;
        u32 rHyb;
        graph::KsDataflow df;
    };
    std::vector<graph::KsDataflow> dfs;
    for (graph::KsDataflow df :
         {graph::KsDataflow::Fused, graph::KsDataflow::OutputStationary,
          graph::KsDataflow::ReorderedModUp}) {
        if (opt.ksDataflowMask & (1u << static_cast<u32>(df)))
            dfs.push_back(df);
    }
    if (dfs.empty())
        throw RecoverableError(
            "key-switch dataflow mask excludes every dataflow");
    auto allows = [&opt](graph::RotMode m) {
        return (opt.rotSchemeMask >> static_cast<u32>(m)) & 1u;
    };
    std::vector<Candidate> cands;
    auto push_scheme = [&](graph::RotMode mode, u32 r) {
        for (graph::KsDataflow df : dfs)
            cands.push_back({mode, r, df});
    };
    if (allows(graph::RotMode::MinKs))
        push_scheme(graph::RotMode::MinKs, 0);
    if (allows(graph::RotMode::Hoisting))
        push_scheme(graph::RotMode::Hoisting, 0);
    if (allow_hybrid && allows(graph::RotMode::Hybrid))
        for (u32 r : rHybCandidates())
            push_scheme(graph::RotMode::Hybrid, r);
    if (allows(graph::RotMode::TripleHoisted))
        push_scheme(graph::RotMode::TripleHoisted, 0);
    if (cands.empty())
        throw RecoverableError(
            "rotation-scheme mask excludes every scheme for this design");

    // Rotation candidates rebuild largely identical graphs (the compute
    // pipeline around the rotations is unchanged), so they share one
    // group memo unless the caller already scoped one wider.
    GroupMemo local_memo;
    SchedOptions sopt = opt;
    if (sopt.memo == nullptr)
        sopt.memo = &local_memo;

    std::vector<std::unique_ptr<WorkloadResult>> results(cands.size());
    parallelFor(0, cands.size(), [&](u64 i) {
        graph::WorkloadOptions wopt;
        wopt.rotMode = cands[i].mode;
        wopt.rHyb = cands[i].rHyb;
        wopt.ksDataflow = cands[i].df;
        graph::Workload w = graph::buildWorkload(workload, params, wopt);
        results[i] = std::make_unique<WorkloadResult>(
            scheduleWorkload(w, cfg, sopt));
    });

    for (u64 i = 0; i < cands.size(); ++i) {
        WorkloadResult &res = *results[i];
        if (res.stats.cycles < best.result.stats.cycles) {
            best.mode = cands[i].mode;
            best.rHyb = cands[i].rHyb;
            best.ksDataflow = cands[i].df;
            best.result = std::move(res);
        }
    }
    if (opt.search != nullptr)
        opt.search->recordChoice(workload, rotLabel(best.mode, best.rHyb),
                                 static_cast<u32>(best.mode),
                                 graph::ksDataflowName(best.ksDataflow),
                                 static_cast<u32>(best.ksDataflow));
    return best;
}

}  // namespace crophe::sched
