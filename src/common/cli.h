#ifndef CROPHE_COMMON_CLI_H_
#define CROPHE_COMMON_CLI_H_

/**
 * @file
 * Minimal shared command-line flag parser for the benchmark and example
 * harnesses. Replaces the per-binary strcmp loops: flags are registered
 * with a destination and a help line, usage text is generated from the
 * registrations, and unknown flags (or flags missing their value) print
 * the usage and fail parsing instead of being silently ignored.
 *
 * Supported shapes: `--flag VALUE` and `--flag=VALUE` (string /
 * numeric) and presence-only `--flag` (bool, which rejects `=`).
 * Parsing is strict and order-independent. `--help` prints the usage
 * to stdout and exits 0.
 */

#include <ostream>
#include <string>
#include <vector>

#include "common/types.h"

namespace crophe::cli {

/** Registration-driven argv parser (see file doc). */
class FlagParser
{
  public:
    /** @param summary one-line description printed above the flag list. */
    explicit FlagParser(std::string summary = "");

    /**
     * `--name VALUE`: any string. @p metavar names what the value is in
     * the usage text (FILE, DIR, SPEC, LIST, ...). @{
     */
    void addString(const std::string &name, std::string *out,
                   const std::string &help, const std::string &metavar);
    /** `--name N`: base-10 unsigned. Parsing fails on non-numeric input. */
    void addUint(const std::string &name, u32 *out, const std::string &help);
    /** `--name X`: floating point. Parsing fails on non-numeric input. */
    void addDouble(const std::string &name, double *out,
                   const std::string &help);
    /** `--name` (no value): sets *out to true. */
    void addBool(const std::string &name, bool *out, const std::string &help);
    /** @} */

    /**
     * Convenience: register the conventional `--threads N` flag, which on
     * parse() sizes the process-wide thread pool (ThreadPool). Results are
     * bit-identical for any N (DESIGN.md §7); only wall-clock changes.
     */
    void addThreadsFlag();

    /**
     * Parse argv[1..argc). On an unknown flag, a missing value, or a
     * malformed number, prints an error plus the usage to stderr and
     * returns false — callers should exit non-zero. `--help` (unless a
     * harness registers it) prints the usage to stdout and exits the
     * process with status 0.
     */
    bool parse(int argc, char **argv);

    /** Auto-generated usage text (also printed on parse failure). */
    void printUsage(const char *argv0, std::ostream &os) const;

  private:
    enum class Kind : u8
    {
        String,
        Uint,
        Double,
        Bool,
    };
    struct Flag
    {
        std::string name;
        Kind kind;
        void *out;
        std::string help;
        std::string metavar;  ///< value placeholder; empty for Bool
    };

    bool fail(const char *argv0, const std::string &message) const;

    std::string summary_;
    std::vector<Flag> flags_;
    bool wantThreads_ = false;
    u32 threads_ = 0;
};

/**
 * Domain checks for parsed flag values (DESIGN.md §9 error contract):
 * each throws crophe::RecoverableError naming the offending flag, so
 * harnesses can reject nonsensical inputs (`--arrival-rate 0`,
 * `--tenants 0`) at startup with a typed error plus their usage text
 * instead of letting the value reach the dispatcher. @{
 */
void requirePositive(const std::string &flag, double value);
void requirePositive(const std::string &flag, u32 value);
void requireNonNegative(const std::string &flag, double value);
/** @} */

}  // namespace crophe::cli

#endif  // CROPHE_COMMON_CLI_H_
