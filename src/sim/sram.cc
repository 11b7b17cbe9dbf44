#include "sim/sram.h"

#include "common/logging.h"
#include "telemetry/trace_recorder.h"

namespace crophe::sim {

namespace {

double
sramWordsPerCycle(const hw::HwConfig &cfg)
{
    CROPHE_ASSERT(cfg.sramGBs > 0.0, "sramGBs must be positive, got ",
                  cfg.sramGBs);
    CROPHE_ASSERT(cfg.freqGhz > 0.0, "freqGhz must be positive, got ",
                  cfg.freqGhz);
    CROPHE_ASSERT(cfg.wordBytes() > 0, "wordBits must be at least 8, got ",
                  cfg.wordBits);
    return cfg.sramGBs / (cfg.wordBytes() * cfg.freqGhz);
}

}  // namespace

SramModel::SramModel(const hw::HwConfig &cfg)
    : wordsPerCycle_(kBankEfficiency * sramWordsPerCycle(cfg)),
      capacityWords_(cfg.sramWords())
{
}

SimTime
SramModel::access(SimTime ready, u64 words)
{
    FifoRun banks = run(words);
    const SimTime done = banks.serve<true>(ready);
    banks.commit();
    return done;
}

void
SramModel::attachTrace(telemetry::TraceRecorder *rec)
{
    spans_.attach(rec, rec->track("SRAM banks"), "access");
}

}  // namespace crophe::sim
