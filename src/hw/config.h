#ifndef CROPHE_HW_CONFIG_H_
#define CROPHE_HW_CONFIG_H_

/**
 * @file
 * Hardware configurations of the CROPHE variants and the baseline
 * accelerators (Table I).
 *
 * CROPHE's array is homogeneous: every PE executes any operator. The
 * baselines provision specialized functional-unit classes at fixed ratios;
 * their configs carry the per-class capacity fractions that constrain MAD
 * scheduling on them (Section III-A, "overly specialized hardware").
 */

#include <array>
#include <string>

#include "common/types.h"

namespace crophe::hw {

/** Functional-unit classes in specialized baseline designs. */
enum class FuClass : u8
{
    Ntt = 0,       ///< (i)NTT butterfly engines
    Elementwise,   ///< vector add/mult units
    BConv,         ///< base-conversion MAC trees
    Automorphism,  ///< permutation networks
    kCount,
};

constexpr u32 kFuClassCount = static_cast<u32>(FuClass::kCount);

/** One accelerator configuration. */
struct HwConfig
{
    std::string name;
    u32 wordBits = 36;        ///< machine word (28 / 36 / 64)
    double freqGhz = 1.2;     ///< logic frequency
    u32 lanes = 256;          ///< modular-multiplier lanes per PE
    u32 numPes = 128;         ///< PEs (CROPHE) or equivalent lane groups
    u32 meshX = 16;           ///< PE array columns
    u32 meshY = 8;            ///< PE array rows
    double dramGBs = 1000.0;  ///< off-chip bandwidth (GB/s)
    double sramGBs = 44000.0; ///< global-buffer bandwidth (GB/s)
    double sramMB = 180.0;    ///< global-buffer capacity (MB)
    double regFileKB = 64.0;  ///< per-PE register file
    double transposeMB = 4.0; ///< transpose-unit SRAM

    bool homogeneous = true;  ///< CROPHE PEs vs specialized FU classes
    /** Capacity fraction per FU class (specialized designs only). */
    std::array<double, kFuClassCount> fuFraction{0.40, 0.30, 0.15, 0.15};

    /**
     * Extra context mixed into configDigest() by layers that schedule on
     * this chip under additional constraints the fields above cannot
     * express (the pod layer salts per-chip configs with the pod digest).
     * Zero — the default — leaves the digest identical to pre-salt
     * builds, so single-chip plan-cache keys are unchanged.
     */
    u64 digestSalt = 0;

    /** Bytes per machine word as stored in SRAM/DRAM. */
    double wordBytes() const { return wordBits / 8.0; }

    /** Total modular multiplications retired per cycle at full util. */
    u64 multsPerCycle() const { return static_cast<u64>(lanes) * numPes; }

    /** Peak modmul throughput (ops/s). */
    double peakMultOps() const { return multsPerCycle() * freqGhz * 1e9; }

    /** Global-buffer capacity in machine words. */
    u64 sramWords() const
    {
        return static_cast<u64>(sramMB * 1024.0 * 1024.0 / wordBytes());
    }
};

/** Table I configurations. @{ */
HwConfig configBts();        ///< BTS [35] (64-bit, 512 MB)
HwConfig configArk();        ///< ARK [34] (64-bit, 512 MB)
HwConfig configCrophe64();   ///< CROPHE-64 (vs BTS/ARK)
HwConfig configClPlus();     ///< CraterLake scaled to 7 nm (28-bit)
HwConfig configSharp();      ///< SHARP [33] (36-bit, 180 MB)
HwConfig configCrophe36();   ///< CROPHE-36 (vs CL+/SHARP)
/** @} */

/** Lookup by name (bts/ark/crophe64/cl+/sharp/crophe36). */
HwConfig configByName(const std::string &name);

/**
 * Validate every field a scheduler or simulator divides by or sizes
 * buffers from. Throws crophe::RecoverableError listing the first
 * problem — user-facing entry points (scheduleWorkload, simulateWorkload)
 * call this so an invalid (e.g. over-degraded) configuration is reported
 * instead of aborting deep inside a model with panic().
 */
void validateConfig(const HwConfig &cfg);

/**
 * Order-sensitive digest over every field that affects scheduling and
 * simulation (name included). Used to key schedule caches and shared
 * enumeration memos: equal digests ⇒ interchangeable hardware.
 */
u64 configDigest(const HwConfig &cfg);

/** Copy of @p base with the global buffer resized to @p sram_mb. */
HwConfig withSramMB(const HwConfig &base, double sram_mb);

}  // namespace crophe::hw

#endif  // CROPHE_HW_CONFIG_H_
