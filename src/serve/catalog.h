#ifndef CROPHE_SERVE_CATALOG_H_
#define CROPHE_SERVE_CATALOG_H_

/**
 * @file
 * The request catalog: the fixed set of workload templates tenants can
 * ask for, each pre-built as an operator graph (or a segmented workload)
 * so that every request for the same template shares one schedule search
 * and one batching key.
 *
 * Template names accepted by buildCatalog():
 *   bootstrap / helr / resnet20 / resnet110 — the Section VI benchmark
 *       workloads from graph::buildWorkload;
 *   hmult / hrot / matvec — cheap single-graph primitives (used by the
 *       "micro" mix so tests and CI smoke runs stay fast).
 *
 * The batching key of a template is its content hash: the
 * graph::Graph::contentHash of each of its segments (the plan cache's
 * graph key) and their repetition counts. Two requests are batchable iff
 * their templates hash equal AND they target the same hardware
 * (hw::configDigest) — the dispatcher only ever runs one config, so the
 * catalog hash alone keys batches at dispatch time.
 */

#include <string>
#include <vector>

#include "graph/workloads.h"

namespace crophe::serve {

/** One requestable workload, pre-built and content-hashed. */
struct RequestTemplate
{
    std::string name;
    graph::Workload workload;  ///< primitives wrap as one-segment workloads
    u64 graphHash = 0;         ///< content hash over segments (batching key)
    u64 ops = 0;               ///< Σ unique-segment ops (plan-latency model)
};

/** The fixed template set one serving run offers. */
struct Catalog
{
    graph::FheParams params;
    std::vector<RequestTemplate> templates;
};

/**
 * Build the catalog for @p names (see file doc for the accepted set).
 * Throws RecoverableError on an unknown name or an empty list.
 */
Catalog buildCatalog(const graph::FheParams &p,
                     const std::vector<std::string> &names,
                     const graph::WorkloadOptions &wopt = {});

/** A named traffic mix: templates plus relative request weights. */
struct MixProfile
{
    std::string name;
    std::vector<std::string> templates;
    std::vector<double> weights;  ///< same length; need not sum to 1
};

/**
 * Built-in mixes: "bootstrap" (bootstrap-heavy), "matvec"
 * (inference/matvec-heavy), "blend" (all three benchmarks), "micro"
 * (primitive graphs only, for tests/CI). Throws RecoverableError on an
 * unknown name.
 */
MixProfile mixByName(const std::string &name);

}  // namespace crophe::serve

#endif  // CROPHE_SERVE_CATALOG_H_
