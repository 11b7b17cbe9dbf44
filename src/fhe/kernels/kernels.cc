#include "fhe/kernels/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/cpu_features.h"
#include "common/error.h"
#include "common/logging.h"

namespace crophe::fhe::kernels {

namespace {

const KernelTable *
tableFor(Backend b)
{
    switch (b) {
    case Backend::Scalar:
        return &scalarTable();
    case Backend::Avx2:
#ifdef CROPHE_HAVE_AVX2
        return &avx2Table();
#else
        return nullptr;
#endif
    case Backend::Avx512:
#ifdef CROPHE_HAVE_AVX512
        return &avx512Table();
#else
        return nullptr;
#endif
    }
    return nullptr;
}

Backend
widestAvailable()
{
    if (available(Backend::Avx512))
        return Backend::Avx512;
    if (available(Backend::Avx2))
        return Backend::Avx2;
    return Backend::Scalar;
}

struct Active
{
    std::atomic<const KernelTable *> table{nullptr};
    std::atomic<Backend> backend{Backend::Scalar};
};

Active &
active()
{
    static Active a;
    return a;
}

bool
parseName(const std::string &name, Backend *out)
{
    if (name == "scalar")
        *out = Backend::Scalar;
    else if (name == "avx2")
        *out = Backend::Avx2;
    else if (name == "avx512")
        *out = Backend::Avx512;
    else if (name == "auto")
        *out = widestAvailable();
    else
        return false;
    return true;
}

/** One-time default selection: CROPHE_KERNEL env, else widest ISA. */
const KernelTable *
resolveDefault()
{
    Backend b = widestAvailable();
    if (const char *env = std::getenv("CROPHE_KERNEL")) {
        Backend requested;
        if (!parseName(env, &requested)) {
            CROPHE_WARN_ONCE("CROPHE_KERNEL=", env,
                             " is not a backend name "
                             "(scalar|avx2|avx512|auto); using ",
                             backendName(b));
        } else if (!available(requested)) {
            CROPHE_WARN_ONCE("CROPHE_KERNEL=", env,
                             " is unavailable on this host/binary; "
                             "falling back to ",
                             backendName(b));
        } else {
            b = requested;
        }
    }
    active().backend.store(b, std::memory_order_relaxed);
    return tableFor(b);
}

}  // namespace

const KernelTable &
table()
{
    const KernelTable *t = active().table.load(std::memory_order_acquire);
    if (t == nullptr) {
        t = resolveDefault();
        active().table.store(t, std::memory_order_release);
    }
    return *t;
}

Backend
activeBackend()
{
    table();  // force resolution
    return active().backend.load(std::memory_order_relaxed);
}

bool
available(Backend b)
{
    if (tableFor(b) == nullptr)
        return false;
    switch (b) {
    case Backend::Scalar:
        return true;
    case Backend::Avx2:
        return cpuFeatures().avx2;
    case Backend::Avx512:
        return cpuFeatures().avx512;
    }
    return false;
}

void
setBackend(Backend b)
{
    CROPHE_ASSERT(available(b), "kernel backend '", backendName(b),
                  "' unavailable");
    active().backend.store(b, std::memory_order_relaxed);
    active().table.store(tableFor(b), std::memory_order_release);
}

Backend
parseBackend(const std::string &name)
{
    Backend b;
    if (!parseName(name, &b))
        throw RecoverableError("unknown kernel backend '" + name +
                               "' (expected scalar|avx2|avx512|auto)");
    return b;
}

void
requestBackend(Backend b)
{
    if (!available(b)) {
        Backend fallback = widestAvailable();
        CROPHE_WARN_ONCE("kernel backend '", backendName(b),
                         "' unavailable on this host/binary; "
                         "falling back to ",
                         backendName(fallback));
        b = fallback;
    }
    setBackend(b);
}

void
fwdNttBatched(const KernelTable &kt, u64 *const *polys, u64 count,
              const NttView &t, u64 tile)
{
    if (kt.fwdNttBatch == nullptr) {
        for (u64 i = 0; i < count; ++i)
            kt.fwdNtt(polys[i], t);
        return;
    }
    if (tile == 0 || tile >= count) {
        kt.fwdNttBatch(polys, count, t);
        return;
    }
    for (u64 at = 0; at < count; at += tile)
        kt.fwdNttBatch(polys + at, std::min(tile, count - at), t);
}

void
invNttBatched(const KernelTable &kt, u64 *const *polys, u64 count,
              const NttView &t, u64 tile)
{
    if (kt.invNttBatch == nullptr) {
        for (u64 i = 0; i < count; ++i)
            kt.invNtt(polys[i], t);
        return;
    }
    if (tile == 0 || tile >= count) {
        kt.invNttBatch(polys, count, t);
        return;
    }
    for (u64 at = 0; at < count; at += tile)
        kt.invNttBatch(polys + at, std::min(tile, count - at), t);
}

const char *
backendName(Backend b)
{
    switch (b) {
    case Backend::Scalar:
        return "scalar";
    case Backend::Avx2:
        return "avx2";
    case Backend::Avx512:
        return "avx512";
    }
    return "?";
}

}  // namespace crophe::fhe::kernels
