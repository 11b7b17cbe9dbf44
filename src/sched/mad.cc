#include "sched/mad.h"

#include "sched/scheduler.h"

namespace crophe::sched {

SchedOptions
madOptions()
{
    SchedOptions opt;
    opt.crossOpDataflow = false;
    opt.nttDecomp = false;
    opt.maxGroupOps = 3;
    opt.clusters = 1;
    return opt;
}

graph::WorkloadOptions
madWorkloadOptions()
{
    graph::WorkloadOptions wopt;
    wopt.rotMode = graph::RotMode::Hoisting;
    wopt.rHyb = 0;
    return wopt;
}

WorkloadResult
scheduleWorkloadMad(const graph::Workload &w, const hw::HwConfig &cfg)
{
    return scheduleWorkload(w, cfg, madOptions());
}

}  // namespace crophe::sched
