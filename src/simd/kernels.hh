/**
 * @file
 * Internal seams of the dispatch layer: the scalar reference kernels
 * (defined in scalar.cc, compiled for the baseline ISA so they are
 * safe to call from any backend's fallback paths) and the per-backend
 * table constructors dispatch.cc wires up. Nothing here is part of
 * the public surface (tests include it for the reference KS walk);
 * include simd/dispatch.hh instead.
 */

#ifndef SHARP_SIMD_KERNELS_HH
#define SHARP_SIMD_KERNELS_HH

#include "simd/dispatch.hh"

namespace sharp
{
namespace simd
{
namespace detail
{

/**
 * The NaN-aware strict weak ordering shared with core::StatsCache:
 * exactly operator< on NaN-free data, NaNs one equivalence class at
 * the end otherwise.
 */
bool nanLess(double a, double b);

uint64_t mergeSortedScalar(const double *a, size_t na, const double *b,
                           size_t nb, double *out);
double ksSortedScalar(const double *a, size_t na, const double *b,
                      size_t nb);

/**
 * The reference two-sample KS walk: the ECDF gap in doubles at every
 * tie-group boundary. It is the executable specification that
 * ksSortedScalar's integer-guarded walk and every vector backend
 * reproduce bit for bit (the tests reach it through this header), and
 * ksSortedScalar's fallback past 2^31 samples.
 */
double ksSortedReferenceScalar(const double *a, size_t na,
                               const double *b, size_t nb);

double orderStatTwoRunsScalar(const double *a, size_t na,
                              const double *b, size_t nb, size_t k,
                              uint64_t *comparisons);
double kahanSumScalar(const double *v, size_t n);
double sumSquaredDeviationsScalar(const double *v, size_t n, double m);

/** True when any of the @p n doubles is NaN (scalar prescan). */
bool hasNanScalar(const double *v, size_t n);

/**
 * The KS merge walk split into four independent merge-path chunks
 * whose steps interleave, breaking the walk's serial compare-advance
 * dependency chain (the scalar walk is latency-bound, not
 * throughput-bound). Bit-identical to ksSortedScalar; preconditions
 * (enforced by callers): NaN-free inputs, both sizes in [1, 2^31].
 * ISA-independent — the win is instruction-level parallelism, so
 * every vector backend shares this one definition (chunked.cc).
 */
double ksSortedChunked(const double *a, size_t na, const double *b,
                       size_t nb);

const KernelTable &scalarTable();
const KernelTable &avx2Table();
const KernelTable &avx512Table();
const KernelTable &neonTable();

} // namespace detail
} // namespace simd
} // namespace sharp

#endif // SHARP_SIMD_KERNELS_HH
