/**
 * @file
 * The scalar reference kernels: the executable specification every
 * vector backend must reproduce bit for bit, and the fallback the
 * vector paths take for inputs outside their fast-path preconditions
 * (NaNs, overflow-guard sizes). This translation unit is compiled for
 * the baseline ISA — no -m flags — so calling into it from any
 * backend is always safe.
 */

#include "simd/kernels.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace sharp
{
namespace simd
{
namespace detail
{
namespace
{

/**
 * The NaN-aware strict weak ordering of core::StatsCache's comparator:
 * exactly operator< on NaN-free data, NaNs one equivalence class at
 * the end otherwise.
 */
bool
nanLess(double a, double b)
{
    if (std::isnan(b))
        return !std::isnan(a);
    if (std::isnan(a))
        return false;
    return a < b;
}

} // anonymous namespace

uint64_t
mergeSortedScalar(const double *a, size_t na, const double *b,
                  size_t nb, double *out)
{
    // The std::merge loop, spelled out: one comparator invocation per
    // emitted element while both runs are non-empty, equal elements
    // taken from `a` first. The returned count is what a CountingLess
    // comparator would have tallied — backend-invariant by contract.
    size_t i = 0, j = 0;
    double *o = out;
    uint64_t comparisons = 0;
    while (i < na && j < nb) {
        ++comparisons;
        if (nanLess(b[j], a[i]))
            *o++ = b[j++];
        else
            *o++ = a[i++];
    }
    if (i < na)
        std::memcpy(o, a + i, (na - i) * sizeof(double));
    if (j < nb)
        std::memcpy(o, b + j, (nb - j) * sizeof(double));
    return comparisons;
}

double
ksSortedReferenceScalar(const double *a, size_t na, const double *b,
                        size_t nb)
{
    // Step both ECDFs past each distinct value and track the supremum
    // in doubles at every tie-group boundary.
    size_t ia = 0, ib = 0;
    double fa = 0.0, fb = 0.0;
    double sup = 0.0;
    while (ia < na && ib < nb) {
        double va = a[ia], vb = b[ib];
        double v = std::min(va, vb);
        // Step both ECDFs past all observations equal to v so ties are
        // handled exactly.
        while (ia < na && a[ia] == v)
            ++ia;
        while (ib < nb && b[ib] == v)
            ++ib;
        fa = static_cast<double>(ia) / static_cast<double>(na);
        fb = static_cast<double>(ib) / static_cast<double>(nb);
        sup = std::max(sup, std::fabs(fa - fb));
    }
    // After one sample is exhausted its ECDF is 1; the gap can only
    // shrink toward the final point where both reach 1, except at the
    // first unprocessed point of the other sample.
    if (ia < na)
        sup = std::max(sup, std::fabs(1.0 - fb));
    if (ib < nb)
        sup = std::max(sup, std::fabs(fa - 1.0));
    return sup;
}

double
ksSortedScalar(const double *a, size_t na, const double *b, size_t nb)
{
    if (na > (size_t{1} << 31) || nb > (size_t{1} << 31))
        return ksSortedReferenceScalar(a, na, b, nb);

    // Single-step merge with an integer guard. The ECDF gap at a merge
    // point is |ia/na - ib/nb|; scaled by na*nb it is the integer
    // |ia*nb - ib*na|, maintained here as a running sum (+nb per a
    // element, -na per b element). Distinct integer values are at
    // least 1/(na*nb) apart as reals, which dwarfs the rounding of the
    // two divisions, so the integer order strictly dominates the
    // double order: every point achieving the double supremum ties the
    // integer maximum. The double expression of the reference walk is
    // evaluated only when the integer maximum is reached (>=, so ties
    // are never skipped), at tie-group boundaries only — yielding a
    // bit-identical supremum while skipping two divisions and a
    // hard-to-predict tie loop at almost every point.
    size_t ia = 0, ib = 0;
    const long long lna = static_cast<long long>(na);
    const long long lnb = static_cast<long long>(nb);
    long long cum = 0, best = 0;
    double sup = 0.0;
    double v = 0.0;
    while (ia < na && ib < nb) {
        double va = a[ia], vb = b[ib];
        bool take_a = va <= vb;
        v = take_a ? va : vb;
        ia += take_a ? 1 : 0;
        ib += take_a ? 0 : 1;
        cum += take_a ? lnb : -lna;
        // Evaluate only once the whole tie group is consumed: the
        // reference walk's merge points are tie-group boundaries, and
        // mid-group gaps may exceed every boundary gap.
        if ((ia >= na || a[ia] != v) && (ib >= nb || b[ib] != v)) {
            long long gap = cum < 0 ? -cum : cum;
            if (gap >= best) {
                best = gap;
                double fa =
                    static_cast<double>(ia) / static_cast<double>(na);
                double fb =
                    static_cast<double>(ib) / static_cast<double>(nb);
                sup = std::max(sup, std::fabs(fa - fb));
            }
        }
    }
    // If one side ran out mid-group, finish the group and evaluate its
    // boundary; re-evaluating an already-scored point is idempotent.
    while (ia < na && a[ia] == v) {
        ++ia;
        cum += lnb;
    }
    while (ib < nb && b[ib] == v) {
        ++ib;
        cum -= lna;
    }
    {
        long long gap = cum < 0 ? -cum : cum;
        if (gap >= best) {
            double fa = static_cast<double>(ia) / static_cast<double>(na);
            double fb = static_cast<double>(ib) / static_cast<double>(nb);
            sup = std::max(sup, std::fabs(fa - fb));
        }
    }
    // After one sample is exhausted its ECDF is 1; the gap can only
    // shrink toward the final point where both reach 1, except at the
    // first unprocessed point of the other sample.
    if (ia < na) {
        double fb = static_cast<double>(ib) / static_cast<double>(nb);
        sup = std::max(sup, std::fabs(1.0 - fb));
    }
    if (ib < nb) {
        double fa = static_cast<double>(ia) / static_cast<double>(na);
        sup = std::max(sup, std::fabs(fa - 1.0));
    }
    return sup;
}

double
sumSquaredDeviationsScalar(const double *v, size_t n, double m)
{
    double ss = 0.0;
    for (size_t i = 0; i < n; ++i) {
        double d = v[i] - m;
        ss += d * d;
    }
    return ss;
}

const KernelTable &
scalarTable()
{
    static const KernelTable table = {
        &mergeSortedScalar,
        &ksSortedScalar,
        &sumSquaredDeviationsScalar,
    };
    return table;
}

} // namespace detail
} // namespace simd
} // namespace sharp
