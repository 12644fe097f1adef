/**
 * @file
 * AVX2 backend: the chunked KS walk behind a vectorized NaN prescan,
 * and the elementwise half of the deviation loop. The merge slot binds
 * the scalar reference: the engine's merges fold a short tail into a
 * long body, and no x86 merge kernel beat the scalar loop on that
 * shape. Compiled with -mavx2 -ffp-contract=off (see CMakeLists.txt);
 * only entered after the runtime CPUID probe, so the baseline build
 * stays legal on any x86-64.
 */

#include "simd/kernels.hh"

#if defined(__AVX2__)

#include <immintrin.h>

namespace sharp
{
namespace simd
{
namespace detail
{
namespace
{

bool
hasNanAvx2(const double *p, size_t n)
{
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256d v = _mm256_loadu_pd(p + i);
        if (_mm256_movemask_pd(_mm256_cmp_pd(v, v, _CMP_UNORD_Q)) != 0)
            return true;
    }
    for (; i < n; ++i)
        if (p[i] != p[i])
            return true;
    return false;
}

double
ksSortedAvx2(const double *a, size_t na, const double *b, size_t nb)
{
    // The chunked walk's co-rank searches assume a total order; NaNs
    // (sorted to the tail by the callers' comparator) break that, so
    // they take the reference walk.
    if (hasNanAvx2(a, na) || hasNanAvx2(b, nb))
        return ksSortedScalar(a, na, b, nb);
    return ksSortedChunked(a, na, b, nb);
}

double
sumSquaredDeviationsAvx2(const double *v, size_t n, double m)
{
    // The accumulation order is the exactness contract, so the adds
    // stay scalar and in element order; lanes only batch the
    // elementwise subtract/multiply. (The serial adds bound the
    // latency, so one call alone times like the scalar loop; yet with
    // every vCPU busy, campaigns ran 12-14% faster with this loop
    // than with the scalar one, see EXPERIMENTS.md.)
    const __m256d vm = _mm256_set1_pd(m);
    double ss = 0.0;
    alignas(32) double d2[4];
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256d d = _mm256_sub_pd(_mm256_loadu_pd(v + i), vm);
        _mm256_store_pd(d2, _mm256_mul_pd(d, d));
        ss += d2[0];
        ss += d2[1];
        ss += d2[2];
        ss += d2[3];
    }
    for (; i < n; ++i) {
        double d = v[i] - m;
        ss += d * d;
    }
    return ss;
}

} // anonymous namespace

const KernelTable &
avx2Table()
{
    static const KernelTable table = {
        &mergeSortedScalar,
        &ksSortedAvx2,
        &sumSquaredDeviationsAvx2,
    };
    return table;
}

} // namespace detail
} // namespace simd
} // namespace sharp

#endif // defined(__AVX2__)
