/**
 * @file
 * The run-batched merge walk of the NEON backend, templated on an Ops
 * policy the backend defines with its intrinsics. It pays on the
 * engine's merges, a short sorted tail folded into a long body, where
 * most elements sit in long body runs; on x86 no merge kernel beat the
 * scalar loop on that shape, so AVX2 binds the scalar merge.
 *
 *   struct Ops {
 *     // Any NaN among the n doubles?
 *     static bool hasNan(const double *p, size_t n);
 *     // Copy the leading run with p[x] <= bound (resp. < bound) to
 *     // out and return its length (speculative full-width stores
 *     // allowed: callers guarantee out has n + 1 slots).
 *     static size_t copyRunLE(const double *p, size_t n, double bound,
 *                             double *out);
 *     static size_t copyRunLT(const double *p, size_t n, double bound,
 *                             double *out);
 *   };
 *
 * Why batching is bit-exact: one vector compare against the other
 * side's head finds a whole run at once; the *elements consumed and
 * emitted are exactly those of the one-at-a-time walk*, so the
 * output bits cannot change. NaN inputs fall back to the scalar
 * reference after a vectorized prescan, because NaN compares break
 * the run invariant.
 *
 * This header is included only by backend translation units compiled
 * with that backend's -m flags; the Ops types live in anonymous
 * namespaces there, so each instantiation is internal to its TU.
 */

#ifndef SHARP_SIMD_BATCHED_IMPL_HH
#define SHARP_SIMD_BATCHED_IMPL_HH

#include <cmath>
#include <cstring>

#include "simd/kernels.hh"

namespace sharp
{
namespace simd
{
namespace detail
{

template <class Ops>
uint64_t
mergeSortedBatched(const double *a, size_t na, const double *b,
                   size_t nb, double *out)
{
    if (na == 0) {
        std::memcpy(out, b, nb * sizeof(double));
        return 0;
    }
    if (nb == 0) {
        std::memcpy(out, a, na * sizeof(double));
        return 0;
    }
    if (Ops::hasNan(a, na) || Ops::hasNan(b, nb))
        return mergeSortedScalar(a, na, b, nb, out);

    // NaN-free, both non-empty: alternate copying the run of a's that
    // sort before (or tie) b's head, then the run of b's strictly
    // before a's head — the exact element order std::merge emits.
    // Speculative full-width stores in copyRun* stay in bounds because
    // the other side always still holds >= 1 element. The comparison
    // count std::merge would make is one per emitted element until the
    // first side empties: na + j or i + nb.
    size_t i = 0, j = 0;
    double *o = out;
    for (;;) {
        size_t r = Ops::copyRunLE(a + i, na - i, b[j], o);
        i += r;
        o += r;
        if (i == na) {
            std::memcpy(o, b + j, (nb - j) * sizeof(double));
            return static_cast<uint64_t>(na + j);
        }
        r = Ops::copyRunLT(b + j, nb - j, a[i], o);
        j += r;
        o += r;
        if (j == nb) {
            std::memcpy(o, a + i, (na - i) * sizeof(double));
            return static_cast<uint64_t>(i + nb);
        }
    }
}

} // namespace detail
} // namespace simd
} // namespace sharp

#endif // SHARP_SIMD_BATCHED_IMPL_HH
