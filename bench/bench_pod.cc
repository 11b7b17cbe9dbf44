/**
 * @file
 * Tracked pod strong-scaling benchmark (DESIGN.md §12): end-to-end time
 * for ResNet-110 and batched bootstrapping on 1/2/4/8-chip pods of the
 * CROPHE-36 design.
 *
 * Every point — including the 1-chip reference — runs through the pod
 * scheduler, so the comparison isolates sharding + interconnect cost
 * from any single-chip/pod modeling difference. One in-memory plan
 * cache is shared across all pod sizes; the pod digest salts its keys,
 * so the sharing doubles as a live check that plans never cross-serve
 * between pod shapes. Results are byte-identical at any --threads
 * value (DESIGN.md §7).
 *
 * Flags:
 *   --json <path>   write BENCH_pod.json-style output
 *   --smoke         ResNet-20 + small bootstrap batch for CI
 *   --batch N       bootstrapping batch size (default 8)
 *   --threads N     size the process-wide pool (wall-clock only)
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "baselines/baseline.h"
#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/common_flags.h"
#include "common/error.h"
#include "graph/workloads.h"
#include "plan/plan_cache.h"
#include "pod/pod.h"

using namespace crophe;

namespace {

struct Point
{
    std::string workload;
    u32 chips = 0;
    double coldMs = 0.0;
    double warmMs = 0.0;
    double speedup = 0.0;      ///< cold vs the 1-chip pod point
    double warmSpeedup = 0.0;  ///< steady-state vs the 1-chip pod point
    u64 interchipWords = 0;
    u64 transfers = 0;
};

void
sweepWorkload(const graph::Workload &w, const hw::HwConfig &chip,
              plan::PlanCache &cache, std::vector<Point> &out)
{
    bench::printHeader("pod strong scaling: " + w.name + " on " +
                       chip.name);
    std::printf("  %5s %12s %12s %8s %8s %14s %9s\n", "chips", "cold ms",
                "warm ms", "speedup", "w.spdup", "interchip wd",
                "transfers");

    sched::SchedOptions so;
    so.planCache = &cache;
    double base = 0.0, warmBase = 0.0;
    for (u32 chips : {1u, 2u, 4u, 8u}) {
        pod::PodConfig pc;
        pc.chips = chips;
        auto pr = pod::schedulePodWorkload(w, chip, pc, so);
        if (chips == 1) {
            base = pr.seconds;
            warmBase = pr.warmSeconds;
        }

        Point p;
        p.workload = w.name;
        p.chips = chips;
        p.coldMs = pr.seconds * 1e3;
        p.warmMs = pr.warmSeconds * 1e3;
        p.speedup = base / pr.seconds;
        p.warmSpeedup = warmBase / pr.warmSeconds;
        p.interchipWords = pr.interchipWords;
        p.transfers = pr.transfers;
        out.push_back(p);

        std::printf("  %5u %12.3f %12.3f %7.2fx %7.2fx %14llu %9llu\n",
                    chips, p.coldMs, p.warmMs, p.speedup, p.warmSpeedup,
                    static_cast<unsigned long long>(p.interchipWords),
                    static_cast<unsigned long long>(p.transfers));
    }
}

void
writeJson(const std::string &path, const std::vector<Point> &points,
          bool smoke, u32 batch)
{
    std::ofstream os(path);
    if (!os)
        throw RecoverableError("cannot write " + path);
    os << "{\n  \"bench\": \"bench_pod\",\n";
    os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
    os << "  \"bootstrap_batch\": " << batch << ",\n  \"results\": [\n";
    char buf[512];
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        std::snprintf(
            buf, sizeof buf,
            "    {\"workload\": \"%s\", \"chips\": %u, "
            "\"cold_ms\": %.3f, \"warm_ms\": %.3f, \"speedup\": %.3f, "
            "\"warm_speedup\": %.3f, \"interchip_words\": %llu, "
            "\"transfers\": %llu}%s\n",
            p.workload.c_str(), p.chips, p.coldMs, p.warmMs, p.speedup,
            p.warmSpeedup,
            static_cast<unsigned long long>(p.interchipWords),
            static_cast<unsigned long long>(p.transfers),
            i + 1 < points.size() ? "," : "");
        os << buf;
    }
    os << "  ]\n}\n";
    std::printf("\nwrote %zu scaling points to %s\n", points.size(),
                path.c_str());
}

int
run(int argc, char **argv)
{
    bool smoke = false;
    u32 batch = 8;
    std::string json;

    cli::FlagParser flags(
        "Pod strong scaling: ResNet-110 and batched bootstrapping on "
        "1/2/4/8 chips.");
    cli::CommonFlags common;
    common.registerInto(flags, cli::CommonFlags::kThreads);
    flags.addBool("--smoke", &smoke, "ResNet-20 + small batch for CI");
    flags.addUint("--batch", &batch, "bootstrapping batch size");
    flags.addString("--json", &json, "write BENCH_pod.json-style output",
                    "FILE");
    if (!flags.parse(argc, argv))
        return 1;
    try {
        cli::requirePositive("--batch", batch);
    } catch (const RecoverableError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        flags.printUsage(argv[0], std::cerr);
        return 1;
    }

    auto design = baselines::designByName("CROPHE-36");
    graph::WorkloadOptions wopt;
    plan::PlanCache cache;  // shared across workloads and pod sizes
    std::vector<Point> points;

    if (smoke)
        batch = std::min(batch, 2u);
    auto resnet = graph::buildWorkload(smoke ? "resnet20" : "resnet110",
                                       design.params, wopt);
    sweepWorkload(resnet, design.cfg, cache, points);

    auto boot = graph::buildBootstrapping(design.params, wopt);
    boot.name = "bootstrap-x" + std::to_string(batch);
    for (auto &seg : boot.segments)
        seg.repetitions *= batch;
    sweepWorkload(boot, design.cfg, cache, points);

    if (!json.empty())
        writeJson(json, points, smoke, batch);
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const RecoverableError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
