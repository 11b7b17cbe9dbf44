#ifndef CROPHE_COMMON_LOGGING_H_
#define CROPHE_COMMON_LOGGING_H_

/**
 * @file
 * gem5-style status/error reporting.
 *
 * panic()  — an internal invariant was violated (a CROPHE bug); aborts.
 * warn()   — something works but not as well as it should.
 * inform() — plain status output.
 *
 * High-frequency degradation sites (a DRAM retry inside a fault sweep can
 * fire thousands of times) use the rate-limited variants: WARN_ONCE emits
 * only the first occurrence per call site, WARN_EVERY_N the 1st, N+1th,
 * 2N+1th... occurrence, suffixed with the running count so the log still
 * shows the event volume.
 */

#include <atomic>
#include <sstream>
#include <string>

namespace crophe {

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Enable/disable inform() output (benchmarks silence it). */
void setVerbose(bool verbose);

namespace detail {

inline void
formatInto(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
formatInto(std::ostringstream &os, const T &value, const Rest &...rest)
{
    os << value;
    formatInto(os, rest...);
}

template <typename... Args>
std::string
format(const Args &...args)
{
    std::ostringstream os;
    formatInto(os, args...);
    return os.str();
}

}  // namespace detail

}  // namespace crophe

#define CROPHE_PANIC(...) \
    ::crophe::panicImpl(__FILE__, __LINE__, ::crophe::detail::format(__VA_ARGS__))

#define CROPHE_WARN(...) \
    ::crophe::warnImpl(::crophe::detail::format(__VA_ARGS__))

/** Warn only on the first execution of this call site (thread-safe). */
#define CROPHE_WARN_ONCE(...)                                             \
    do {                                                                  \
        static std::atomic<bool> crophe_warned_{false};                   \
        if (!crophe_warned_.exchange(true, std::memory_order_relaxed))    \
            ::crophe::warnImpl(::crophe::detail::format(__VA_ARGS__));    \
    } while (false)

/**
 * Warn on the 1st, n+1th, 2n+1th... execution of this call site, with the
 * occurrence count appended — fault sweeps injecting thousands of errors
 * log a handful of lines instead of flooding stderr.
 */
#define CROPHE_WARN_EVERY_N(n, ...)                                       \
    do {                                                                  \
        static std::atomic<unsigned long long> crophe_warn_count_{0};     \
        unsigned long long crophe_seen_ = crophe_warn_count_.fetch_add(   \
                                              1,                          \
                                              std::memory_order_relaxed) +\
                                          1;                              \
        if ((crophe_seen_ - 1) % static_cast<unsigned long long>(n) == 0) \
            ::crophe::warnImpl(::crophe::detail::format(                  \
                __VA_ARGS__, " (occurrence ", crophe_seen_, ")"));        \
    } while (false)

#define CROPHE_INFORM(...) \
    ::crophe::informImpl(::crophe::detail::format(__VA_ARGS__))

/** Internal invariant check; active in all build types. */
#define CROPHE_ASSERT(cond, ...)                                        \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::crophe::panicImpl(__FILE__, __LINE__,                     \
                ::crophe::detail::format("assertion failed: " #cond " ", \
                                         ##__VA_ARGS__));              \
        }                                                               \
    } while (false)

#endif  // CROPHE_COMMON_LOGGING_H_
