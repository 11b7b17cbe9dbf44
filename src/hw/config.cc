#include "hw/config.h"

#include "common/error.h"
#include "common/hash.h"
#include "common/logging.h"

namespace crophe::hw {

HwConfig
configBts()
{
    HwConfig c;
    c.name = "BTS";
    c.wordBits = 64;
    c.freqGhz = 1.2;
    // BTS provisions 2048 small PEs; normalized here to lane-equivalents
    // of comparable total logic capability (each BTS PE bundles several
    // specialized datapaths).
    c.lanes = 4;
    c.numPes = 2048;
    c.meshX = 64;
    c.meshY = 32;
    c.sramGBs = 38400.0;
    c.sramMB = 512.0;
    c.regFileKB = 8.0;
    c.homogeneous = false;
    c.fuFraction = {0.45, 0.25, 0.15, 0.15};
    return c;
}

HwConfig
configArk()
{
    HwConfig c;
    c.name = "ARK";
    c.wordBits = 64;
    c.freqGhz = 1.0;
    c.lanes = 256;
    c.numPes = 4 * 12;  // 4 clusters, each with multiple engine groups
    c.meshX = 12;
    c.meshY = 4;
    c.sramGBs = 20000.0;
    c.sramMB = 512.0;
    c.regFileKB = 128.0;
    c.homogeneous = false;
    c.fuFraction = {0.40, 0.25, 0.20, 0.15};
    return c;
}

HwConfig
configCrophe64()
{
    HwConfig c;
    c.name = "CROPHE-64";
    c.wordBits = 64;
    c.freqGhz = 1.2;
    c.lanes = 256;
    c.numPes = 64;
    c.meshX = 8;
    c.meshY = 8;
    c.sramGBs = 39000.0;
    c.sramMB = 512.0;
    c.regFileKB = 64.0;
    c.homogeneous = true;
    return c;
}

HwConfig
configClPlus()
{
    HwConfig c;
    c.name = "CL+";
    c.wordBits = 28;
    c.freqGhz = 1.0;
    c.lanes = 512;
    c.numPes = 8 * 6;  // 8 clusters of wide vector groups
    c.meshX = 8;
    c.meshY = 6;
    c.sramGBs = 84000.0;
    c.sramMB = 256.0;
    c.regFileKB = 32.0;
    c.homogeneous = false;
    c.fuFraction = {0.40, 0.30, 0.20, 0.10};
    return c;
}

HwConfig
configSharp()
{
    HwConfig c;
    c.name = "SHARP";
    c.wordBits = 36;
    c.freqGhz = 1.0;
    c.lanes = 256;
    c.numPes = 4 * 16;  // 4 clusters, hierarchical lane groups
    c.meshX = 16;
    c.meshY = 4;
    c.sramGBs = 36000.0;
    c.sramMB = 180.0;
    c.regFileKB = 72.0;
    c.homogeneous = false;
    c.fuFraction = {0.40, 0.25, 0.17, 0.18};
    return c;
}

HwConfig
configCrophe36()
{
    HwConfig c;
    c.name = "CROPHE-36";
    c.wordBits = 36;
    c.freqGhz = 1.2;
    c.lanes = 256;
    c.numPes = 128;
    c.meshX = 16;
    c.meshY = 8;
    c.sramGBs = 44000.0;
    c.sramMB = 180.0;
    c.regFileKB = 64.0;
    c.homogeneous = true;
    return c;
}

HwConfig
configByName(const std::string &name)
{
    if (name == "bts")
        return configBts();
    if (name == "ark")
        return configArk();
    if (name == "crophe64")
        return configCrophe64();
    if (name == "cl+" || name == "clplus")
        return configClPlus();
    if (name == "sharp")
        return configSharp();
    if (name == "crophe36")
        return configCrophe36();
    // User input (CLI/config lookup), not an invariant: recoverable.
    throw RecoverableError("unknown hardware configuration: " + name);
}

void
validateConfig(const HwConfig &cfg)
{
    auto reject = [&cfg](const std::string &why) {
        throw RecoverableError("invalid hardware configuration \"" +
                               cfg.name + "\": " + why);
    };
    if (cfg.wordBits < 8)
        reject("wordBits must be at least 8");
    if (!(cfg.freqGhz > 0.0))
        reject("freqGhz must be positive");
    if (cfg.lanes == 0)
        reject("lanes must be positive");
    if (cfg.numPes == 0)
        reject("numPes must be positive");
    if (cfg.meshX == 0 || cfg.meshY == 0)
        reject("mesh dimensions must be positive");
    if (!(cfg.dramGBs > 0.0))
        reject("dramGBs must be positive");
    if (!(cfg.sramGBs > 0.0))
        reject("sramGBs must be positive");
    if (!(cfg.sramMB > 0.0))
        reject("sramMB must be positive");
    if (!(cfg.regFileKB > 0.0))
        reject("regFileKB must be positive");
    if (!(cfg.transposeMB > 0.0))
        reject("transposeMB must be positive");
    if (!cfg.homogeneous) {
        double total = 0.0;
        for (double f : cfg.fuFraction) {
            if (!(f >= 0.0))
                reject("FU-class fractions must be non-negative");
            total += f;
        }
        if (!(total > 0.0))
            reject("a specialized design needs some FU capacity");
    }
}

u64
configDigest(const HwConfig &cfg)
{
    u64 h = kHashSeed;
    hashMix(h, std::hash<std::string>{}(cfg.name));
    hashMix(h, cfg.wordBits);
    hashMix(h, cfg.freqGhz);
    hashMix(h, cfg.lanes);
    hashMix(h, cfg.numPes);
    hashMix(h, cfg.meshX);
    hashMix(h, cfg.meshY);
    hashMix(h, cfg.dramGBs);
    hashMix(h, cfg.sramGBs);
    hashMix(h, cfg.sramMB);
    hashMix(h, cfg.regFileKB);
    hashMix(h, cfg.transposeMB);
    hashMix(h, cfg.homogeneous ? 1 : 0);
    for (double f : cfg.fuFraction)
        hashMix(h, f);
    // Mixed only when set: a zero salt keeps the digest byte-identical to
    // pre-salt builds (existing disk plan caches stay valid).
    if (cfg.digestSalt != 0)
        hashMix(h, cfg.digestSalt);
    return h;
}

HwConfig
withSramMB(const HwConfig &base, double sram_mb)
{
    CROPHE_ASSERT(sram_mb > 0, "SRAM capacity must be positive");
    HwConfig c = base;
    c.sramMB = sram_mb;
    return c;
}

}  // namespace crophe::hw
