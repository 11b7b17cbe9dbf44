#include "common/common_flags.h"

#include "fhe/kernels/kernels.h"
#include "plan/plan_cache.h"

namespace crophe::cli {

void
CommonFlags::registerInto(FlagParser &parser, u32 want)
{
    if (want & kThreads)
        parser.addThreadsFlag();
    if (want & kStatsOut)
        parser.addString("--stats-out", &statsOut,
                         "dump the telemetry registry as JSON to FILE",
                         "FILE");
    if (want & kTraceOut)
        parser.addString("--trace-out", &traceOut,
                         "write the event trace as JSON to FILE", "FILE");
    if (want & kPlanCache) {
        planCacheDir = plan::PlanCache::dirFromEnv();
        parser.addString("--plan-cache", &planCacheDir,
                         "schedule-cache directory "
                         "(default $CROPHE_PLAN_CACHE)",
                         "DIR");
    }
    if (want & kKernel)
        parser.addString("--kernel", &kernelName,
                         "kernel backend: scalar|avx2|avx512|auto "
                         "(default $CROPHE_KERNEL or widest available)",
                         "BACKEND");
    if (want & kSeed)
        parser.addUint("--seed", &seed, "workload RNG seed");
}

void
CommonFlags::apply() const
{
    if (!kernelName.empty())
        fhe::kernels::requestBackend(fhe::kernels::parseBackend(kernelName));
}

}  // namespace crophe::cli
