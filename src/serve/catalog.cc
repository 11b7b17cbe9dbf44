#include "serve/catalog.h"

#include <algorithm>

#include "common/error.h"

namespace crophe::serve {

namespace {

/** splitmix-style combiner (same family the plan cache uses). */
u64
mix64(u64 h, u64 v)
{
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
}

/** Wrap one primitive graph as a single-segment workload. */
graph::Workload
wrapPrimitive(const std::string &name, const graph::FheParams &p,
              graph::Graph g)
{
    graph::Workload w;
    w.name = name;
    w.params = p;
    w.segments.push_back({name, std::move(g), 1});
    return w;
}

graph::Workload
buildTemplateWorkload(const std::string &name, const graph::FheParams &p,
                      const graph::WorkloadOptions &wopt)
{
    // Primitives run at a mid-stack level: deep enough to exercise
    // key switching, cheap enough for tests.
    const u32 level = std::min<u32>(10, p.L);
    if (name == "hmult")
        return wrapPrimitive(name, p, graph::buildHMult(p, level));
    if (name == "hrot")
        return wrapPrimitive(name, p,
                             graph::buildHRot(p, level, "evk_rot_1"));
    if (name == "matvec")
        return wrapPrimitive(
            name, p,
            graph::buildPtMatVecMult(p, level, 4, 2, wopt.rotMode,
                                     wopt.rHyb));
    // Everything else must be a Section VI benchmark workload;
    // buildWorkload throws RecoverableError on unknown names.
    return graph::buildWorkload(name, p, wopt);
}

}  // namespace

Catalog
buildCatalog(const graph::FheParams &p,
             const std::vector<std::string> &names,
             const graph::WorkloadOptions &wopt)
{
    if (names.empty())
        throw RecoverableError("catalog template list is empty");
    Catalog cat;
    cat.params = p;
    for (const auto &name : names) {
        RequestTemplate t;
        t.name = name;
        t.workload = buildTemplateWorkload(name, p, wopt);
        u64 h = 0x53525645u;  // 'SRVE'
        for (const auto &seg : t.workload.segments) {
            h = mix64(h, seg.graph.contentHash());
            h = mix64(h, seg.repetitions);
            t.ops += seg.graph.size();
        }
        t.graphHash = h;
        cat.templates.push_back(std::move(t));
    }
    return cat;
}

MixProfile
mixByName(const std::string &name)
{
    if (name == "bootstrap")
        return {name, {"bootstrap", "helr"}, {0.7, 0.3}};
    if (name == "matvec")
        return {name, {"resnet20", "bootstrap"}, {0.7, 0.3}};
    if (name == "blend")
        return {name, {"bootstrap", "helr", "resnet20"}, {0.4, 0.3, 0.3}};
    if (name == "micro")
        return {name, {"hmult", "hrot", "matvec"}, {0.5, 0.3, 0.2}};
    throw RecoverableError(
        "unknown mix '" + name +
        "' (expected bootstrap, matvec, blend, or micro)");
}

}  // namespace crophe::serve
