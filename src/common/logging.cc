#include "common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace crophe {

namespace {
bool g_verbose = true;
}  // namespace

void
setVerbose(bool verbose)
{
    g_verbose = verbose;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  @ %s:%d\n", msg.c_str(), file, line);
    std::abort();
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (g_verbose)
        std::fprintf(stdout, "info: %s\n", msg.c_str());
}

}  // namespace crophe
