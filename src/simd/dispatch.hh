/**
 * @file
 * Runtime-dispatched SIMD kernels for the statistics hot path.
 *
 * The incremental engine (core::StatsCache) made the stopping-rule hot
 * path sub-linear in *work*; what remains is the per-element cost of
 * three kernels: the sorted-run merge behind the lazily-merged view,
 * the half-split KS merge walk, and the squared-deviation loop of the
 * variance. This module gives each of those a function-pointer slot in
 * a KernelTable and selects an implementation once per process: a
 * CPUID probe picks the best backend in priority order AVX2 > NEON >
 * scalar, and the `SHARP_SIMD_BACKEND` environment variable overrides
 * the probe (unknown or unsupported names fail fast, with a
 * did-you-mean hint). The launcher records the dispatched backend as
 * `repro_simd_backend` in repro metadata so an artifact always names
 * the code that ran.
 *
 * A backend binds its own kernel to a slot only where the shapes the
 * engine produces pay for it, and the scalar reference otherwise:
 *
 *  - mergeSorted: StatsCache folds a short sorted tail (at most 2049
 *    elements) into a long body, so the merge is mostly long runs of
 *    body elements. NEON's run-batched walk consumes those runs in
 *    vector compares; on x86 a merge network measured slower than the
 *    scalar loop on that shape, so AVX2 binds the scalar merge.
 *  - ksSorted: the chunked walk (chunked.cc) breaks the scalar walk's
 *    serial dependency chain; the vector backends contribute the NaN
 *    prescan that routes NaN-bearing inputs to the reference walk.
 *  - sumSquaredDeviations: lanes batch the elementwise (v - m)^2 work.
 *
 * Exactness contract: every backend returns bit-for-bit the values of
 * the scalar reference on the same input, and backend-invariant work
 * counters (the currency of the bench gate):
 *
 *  - NEON's mergeSorted consumes whole runs found with vector
 *    compares, and the chunked ksSorted runs the scalar loop body from
 *    exact co-rank splits; elements are only moved and the evaluation
 *    points are provably the same, so bits cannot change. Inputs
 *    containing NaN fall back to the scalar reference (one vectorized
 *    prescan), keeping the NaN-last deterministic ordering contract of
 *    core::StatsCache.
 *  - sumSquaredDeviations accumulates lane results in element order,
 *    which keeps the adds — and the bits — identical to the scalar
 *    loop. Every simd translation unit is compiled with
 *    -ffp-contract=off so no backend can fuse the multiply-add and
 *    round differently.
 *
 * The parity suite (tests/test_simd.cc, label `simd`) runs every
 * compiled backend against scalar on randomized and adversarial
 * inputs; bench/stopping_hotpath times the kernels per backend on the
 * engine's own merge shapes, gates the dispatched vector backend at
 * >= 1.5x over scalar on the KS kernel at n = 1e5, and gates a backend
 * with its own merge kernel at >= 1.0x on the merges.
 */

#ifndef SHARP_SIMD_DISPATCH_HH
#define SHARP_SIMD_DISPATCH_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sharp
{
namespace simd
{

/** Kernel implementations this build may carry. */
enum class Backend
{
    Scalar = 0,
    Neon,
    Avx2,
};

/**
 * One function pointer per hot kernel. All pointers are non-null in
 * every table; backends without a vector win for a slot bind the
 * scalar reference.
 */
struct KernelTable
{
    /**
     * Merge two ascending runs (NaN-aware: NaNs order last, exactly
     * like core::StatsCache's comparator) into @p out, which must hold
     * na + nb doubles. Returns the number of comparator invocations
     * std::merge would have made, so callers can keep the
     * backend-invariant comparison counters exact.
     */
    uint64_t (*mergeSorted)(const double *a, size_t na, const double *b,
                            size_t nb, double *out);

    /**
     * Two-sample KS statistic over two ascending runs; bit-identical
     * to the reference walk detail::ksSortedReferenceScalar (sizes
     * past 2^31 and NaN inputs take that walk internally).
     */
    double (*ksSorted)(const double *a, size_t na, const double *b,
                       size_t nb);

    /**
     * Sum of squared deviations about @p m, accumulated in element
     * order (stats::variance's loop).
     */
    double (*sumSquaredDeviations)(const double *v, size_t n, double m);
};

/** Lowercase stable name: "scalar", "neon", "avx2". */
const char *backendName(Backend backend);

/** Every backend name this build could ever accept, probe order. */
std::vector<std::string> knownBackendNames();

/**
 * Parse a backend name.
 * @throws std::invalid_argument for unknown names, with a
 *         did-you-mean hint when the name is plausibly a typo.
 */
Backend parseBackendName(const std::string &name);

/** Backends whose kernels were compiled into this binary. */
std::vector<Backend> compiledBackends();

/** True when @p backend's kernels exist in this binary. */
bool backendCompiled(Backend backend);

/** True when the running CPU can execute @p backend's kernels. */
bool backendSupported(Backend backend);

/** Compiled and supported: selectable here and now. */
bool backendRunnable(Backend backend);

/**
 * The backend @p request selects: null/empty picks the best runnable
 * backend (AVX2 > NEON > scalar); otherwise the named
 * backend, validated.
 * @throws std::invalid_argument for unknown names (did-you-mean hint)
 *         and for backends this build or CPU cannot run.
 */
Backend resolveBackend(const char *request);

/**
 * The process-wide dispatched backend. First use resolves
 * SHARP_SIMD_BACKEND from the environment via resolveBackend().
 */
Backend activeBackend();

/** backendName(activeBackend()), for banners and provenance. */
const char *activeBackendName();

/**
 * Force the dispatched backend (tests and the bench harness; not
 * thread-safe against concurrent kernel callers).
 * @throws std::invalid_argument when @p backend is not runnable.
 */
void setActiveBackend(Backend backend);

/** The active backend's kernels — the hot-path entry point. */
const KernelTable &kernels();

/**
 * A specific backend's kernels (the parity suite and the per-backend
 * bench loop). @throws std::invalid_argument when not compiled in.
 */
const KernelTable &kernelTable(Backend backend);

} // namespace simd
} // namespace sharp

#endif // SHARP_SIMD_DISPATCH_HH
