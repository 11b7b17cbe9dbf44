#include "common/cli.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/error.h"
#include "common/logging.h"
#include "common/parallel.h"

namespace crophe::cli {

FlagParser::FlagParser(std::string summary) : summary_(std::move(summary)) {}

void
FlagParser::addString(const std::string &name, std::string *out,
                      const std::string &help, const std::string &metavar)
{
    CROPHE_ASSERT(out != nullptr, "flag destination required");
    CROPHE_ASSERT(!metavar.empty(), "string flag ", name, " needs a metavar");
    flags_.push_back({name, Kind::String, out, help, metavar});
}

void
FlagParser::addUint(const std::string &name, u32 *out,
                    const std::string &help)
{
    CROPHE_ASSERT(out != nullptr, "flag destination required");
    flags_.push_back({name, Kind::Uint, out, help, "N"});
}

void
FlagParser::addDouble(const std::string &name, double *out,
                      const std::string &help)
{
    CROPHE_ASSERT(out != nullptr, "flag destination required");
    flags_.push_back({name, Kind::Double, out, help, "X"});
}

void
FlagParser::addBool(const std::string &name, bool *out,
                    const std::string &help)
{
    CROPHE_ASSERT(out != nullptr, "flag destination required");
    flags_.push_back({name, Kind::Bool, out, help, ""});
}

void
FlagParser::addThreadsFlag()
{
    wantThreads_ = true;
    addUint("--threads", &threads_,
            "size the process-wide thread pool (0 = hardware)");
}

bool
FlagParser::fail(const char *argv0, const std::string &message) const
{
    std::cerr << argv0 << ": " << message << "\n";
    printUsage(argv0, std::cerr);
    return false;
}

bool
FlagParser::parse(int argc, char **argv)
{
    threads_ = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // `--flag=value` splits at the first '='; `--flag value` is the
        // space-separated equivalent.
        bool inlineValue = false;
        std::string value;
        const std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            inlineValue = true;
        }
        const Flag *flag = nullptr;
        for (const auto &f : flags_)
            if (f.name == arg)
                flag = &f;
        if (flag == nullptr && arg == "--help" && !inlineValue) {
            printUsage(argv[0], std::cout);
            std::cout.flush();
            std::exit(0);
        }
        if (flag == nullptr)
            return fail(argv[0], "unknown flag: " + arg);

        if (flag->kind == Kind::Bool) {
            if (inlineValue)
                return fail(argv[0], arg + " takes no value");
            *static_cast<bool *>(flag->out) = true;
            continue;
        }
        if (!inlineValue) {
            if (i + 1 >= argc)
                return fail(argv[0], arg + " requires a value");
            value = argv[++i];
        }
        if (flag->kind == Kind::String) {
            *static_cast<std::string *>(flag->out) = value;
            continue;
        }
        char *end = nullptr;
        if (flag->kind == Kind::Double) {
            double parsed = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0')
                return fail(argv[0], arg + " expects a number, got \"" +
                                         value + "\"");
            *static_cast<double *>(flag->out) = parsed;
            continue;
        }
        unsigned long parsed = std::strtoul(value.c_str(), &end, 10);
        if (end == value.c_str() || *end != '\0')
            return fail(argv[0], arg + " expects an unsigned integer, got \"" +
                                     value + "\"");
        *static_cast<u32 *>(flag->out) = static_cast<u32>(parsed);
    }
    if (wantThreads_ && threads_ > 0)
        ThreadPool::setGlobalThreads(threads_);
    return true;
}

void
FlagParser::printUsage(const char *argv0, std::ostream &os) const
{
    auto head = [](const Flag &f) {
        return f.metavar.empty() ? f.name : f.name + " " + f.metavar;
    };
    os << "usage: " << argv0 << " [--help]";
    for (const auto &f : flags_)
        os << " [" << head(f) << "]";
    os << "\n";
    if (!summary_.empty())
        os << "  " << summary_ << "\n";
    for (const auto &f : flags_) {
        const std::string h = head(f);
        os << "  " << h;
        for (std::size_t pad = h.size(); pad < 22; ++pad)
            os << ' ';
        os << f.help << "\n";
    }
}

void
requirePositive(const std::string &flag, double value)
{
    if (!(value > 0.0))
        throw RecoverableError(flag + " must be positive, got " +
                               std::to_string(value));
}

void
requirePositive(const std::string &flag, u32 value)
{
    if (value == 0)
        throw RecoverableError(flag + " must be at least 1");
}

void
requireNonNegative(const std::string &flag, double value)
{
    if (!(value >= 0.0))
        throw RecoverableError(flag + " cannot be negative, got " +
                               std::to_string(value));
}

}  // namespace crophe::cli
