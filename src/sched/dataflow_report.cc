#include "sched/dataflow_report.h"

#include <fstream>
#include <sstream>

#include "graph/op.h"

namespace crophe::sched {

std::string
dataflowReport(const Schedule &sched, const hw::HwConfig &cfg)
{
    std::ostringstream os;
    os << "# CROPHE dataflow result\n";
    os << "# hardware: " << cfg.name << " (" << cfg.numPes << " PEs x "
       << cfg.lanes << " lanes, " << cfg.sramMB << " MB)\n";
    os << "# cycles: " << sched.stats.cycles
       << "  dram words: " << sched.stats.dramWords
       << "  sram words: " << sched.stats.sramWords << "\n\n";

    u32 s_idx = 0;
    for (const auto &grp : *sched.groups) {
        os << "spatial-group " << s_idx++ << ": cycles=" << grp.cycles
           << " buffer=" << grp.bufferWords << "\n";
        for (const auto &alloc : grp.allocs) {
            const auto &op = sched.graph.op(alloc.op);
            os << "  op " << alloc.op << " " << graph::opKindName(op.kind)
               << " limbs=" << op.limbsIn << "->" << op.limbsOut
               << " pes=" << alloc.pes;
            if (!op.auxKey.empty())
                os << " aux=" << op.auxKey;
            os << "\n";
        }
        for (const auto &e : grp.internalEdges) {
            os << "  edge " << e.from << "->" << e.to << " "
               << (e.mode == EdgeMode::Pipelined ? "pipelined"
                                                 : "materialized")
               << " granule=" << e.granuleWords << "\n";
        }
    }
    return os.str();
}

bool
writeDataflowReport(const Schedule &sched, const hw::HwConfig &cfg,
                    const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << dataflowReport(sched, cfg);
    return static_cast<bool>(out);
}

}  // namespace crophe::sched
