/**
 * @file
 * Backend selection: compile-time availability (which backend TUs
 * CMake compiled in), runtime support (CPUID probe), the
 * SHARP_SIMD_BACKEND override, and the atomic active-table pointer
 * the hot path reads. Selection happens once per process on first
 * use; setActiveBackend() re-points it for tests and the per-backend
 * bench loop.
 */

#include "simd/dispatch.hh"

#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "check/diagnostic.hh"
#include "simd/kernels.hh"

namespace sharp
{
namespace simd
{

namespace
{

/** The three backends best-first: the probe order of resolveBackend. */
constexpr Backend kProbeOrder[] = {Backend::Avx2, Backend::Neon,
                                   Backend::Scalar};

std::atomic<const KernelTable *> &
activeTablePointer()
{
    static std::atomic<const KernelTable *> pointer{nullptr};
    return pointer;
}

std::atomic<int> &
activeBackendValue()
{
    static std::atomic<int> value{-1};
    return value;
}

std::string
runnableBackendList()
{
    std::string names;
    for (Backend b : kProbeOrder) {
        if (!backendRunnable(b))
            continue;
        if (!names.empty())
            names += ", ";
        names += backendName(b);
    }
    return names;
}

} // anonymous namespace

const char *
backendName(Backend backend)
{
    switch (backend) {
    case Backend::Scalar:
        return "scalar";
    case Backend::Neon:
        return "neon";
    case Backend::Avx2:
        return "avx2";
    }
    return "scalar";
}

std::vector<std::string>
knownBackendNames()
{
    return {"avx2", "neon", "scalar"};
}

Backend
parseBackendName(const std::string &name)
{
    if (name == "scalar")
        return Backend::Scalar;
    if (name == "neon")
        return Backend::Neon;
    if (name == "avx2")
        return Backend::Avx2;
    std::string message = "unknown SIMD backend '" + name +
                          "'; known backends: avx2, neon, scalar";
    std::string hint = check::suggestName(name, knownBackendNames());
    if (!hint.empty())
        message += " — " + hint;
    throw std::invalid_argument(message);
}

bool
backendCompiled(Backend backend)
{
    switch (backend) {
    case Backend::Scalar:
        return true;
    case Backend::Neon:
#if defined(SHARP_SIMD_HAVE_NEON)
        return true;
#else
        return false;
#endif
    case Backend::Avx2:
#if defined(SHARP_SIMD_HAVE_AVX2)
        return true;
#else
        return false;
#endif
    }
    return false;
}

bool
backendSupported(Backend backend)
{
    switch (backend) {
    case Backend::Scalar:
        return true;
    case Backend::Neon:
        // NEON (Advanced SIMD) is architecturally mandatory on
        // AArch64, so the compile gate is the whole probe.
#if defined(__aarch64__)
        return true;
#else
        return false;
#endif
    case Backend::Avx2:
#if defined(__x86_64__) || defined(__i386__)
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
    }
    return false;
}

bool
backendRunnable(Backend backend)
{
    return backendCompiled(backend) && backendSupported(backend);
}

std::vector<Backend>
compiledBackends()
{
    std::vector<Backend> backends;
    for (Backend b : kProbeOrder)
        if (backendCompiled(b))
            backends.push_back(b);
    return backends;
}

const KernelTable &
kernelTable(Backend backend)
{
    switch (backend) {
    case Backend::Scalar:
        return detail::scalarTable();
    case Backend::Neon:
#if defined(SHARP_SIMD_HAVE_NEON)
        return detail::neonTable();
#else
        break;
#endif
    case Backend::Avx2:
#if defined(SHARP_SIMD_HAVE_AVX2)
        return detail::avx2Table();
#else
        break;
#endif
    }
    throw std::invalid_argument(
        std::string("SIMD backend '") + backendName(backend) +
        "' is not compiled into this build");
}

Backend
resolveBackend(const char *request)
{
    if (request == nullptr || *request == '\0') {
        for (Backend b : kProbeOrder)
            if (backendRunnable(b))
                return b;
        return Backend::Scalar;
    }
    Backend backend = parseBackendName(request);
    if (!backendRunnable(backend)) {
        std::string message =
            std::string("SIMD backend '") + backendName(backend) +
            (backendCompiled(backend)
                 ? "' is not supported by this CPU"
                 : "' is not compiled into this build") +
            "; runnable backends: " + runnableBackendList();
        throw std::invalid_argument(message);
    }
    return backend;
}

void
setActiveBackend(Backend backend)
{
    if (!backendRunnable(backend)) {
        throw std::invalid_argument(
            std::string("SIMD backend '") + backendName(backend) +
            "' is not runnable here; runnable backends: " +
            runnableBackendList());
    }
    const KernelTable &table = kernelTable(backend);
    activeTablePointer().store(&table, std::memory_order_release);
    activeBackendValue().store(static_cast<int>(backend),
                               std::memory_order_release);
}

Backend
activeBackend()
{
    int value = activeBackendValue().load(std::memory_order_acquire);
    if (value < 0) {
        // Racing first uses both resolve the same environment, so the
        // double store is idempotent.
        Backend backend =
            resolveBackend(std::getenv("SHARP_SIMD_BACKEND"));
        setActiveBackend(backend);
        return backend;
    }
    return static_cast<Backend>(value);
}

const char *
activeBackendName()
{
    return backendName(activeBackend());
}

const KernelTable &
kernels()
{
    const KernelTable *table =
        activeTablePointer().load(std::memory_order_acquire);
    if (table == nullptr) {
        activeBackend();
        table = activeTablePointer().load(std::memory_order_acquire);
    }
    return *table;
}

} // namespace simd
} // namespace sharp
