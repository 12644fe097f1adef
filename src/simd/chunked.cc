/**
 * @file
 * Merge-path-chunked KS walk. The scalar KS kernel is a single-step
 * merge whose per-iteration latency is dominated by the serial
 * compare -> advance-index -> load chain; no amount of in-loop
 * vectorization helps because the next load address depends on the
 * previous compare. This implementation splits the merged domain into
 * four equal diagonals, recovers each chunk's exact walk state with a
 * merge-path binary search (co-rank), and steps the four chunk walks
 * interleaved — four independent dependency chains in flight instead
 * of one.
 *
 * Bit-exactness argument, leaning on the integer-guard design of
 * ksSortedScalar (scalar.cc): the integer gap |ia*nb - ib*na| strictly
 * dominates the double gap order, so the scalar supremum equals the
 * double expression max'd over exactly the boundary points attaining
 * the integer maximum. Each chunk walk executes the scalar loop body
 * verbatim (same boundary predicate, same eval expression); running a
 * chunk with a fresh local `best` only *adds* evaluations at points
 * whose double value is strictly below the true supremum, so
 * max(sup_c) over chunks is bit-identical to the scalar result. The
 * tail (tie-group finish + one-sided ECDF evals) runs once, verbatim,
 * from the true exhaust state.
 *
 * Compiled for the baseline ISA with -ffp-contract=off: the double
 * expressions must round exactly like the reference's.
 */

#include "simd/kernels.hh"

#include <algorithm>
#include <cmath>

namespace sharp
{
namespace simd
{
namespace detail
{

namespace
{

/**
 * Merge-path co-rank: the exact (ia, ib) the scalar walk holds after
 * consuming @p k elements, under its tie rule (equal values taken
 * from `a` first). Valid split: consumed a's <= unconsumed b's (ties
 * fine) and consumed b's strictly < unconsumed a's.
 */
size_t
coRank(size_t k, const double *a, size_t na, const double *b,
       size_t nb)
{
    size_t lo = k > nb ? k - nb : 0;
    size_t hi = std::min(k, na);
    while (lo < hi) {
        size_t i = (lo + hi) / 2; // candidate ia; j = k - i >= 1
        if (!(b[k - i - 1] < a[i]))
            lo = i + 1; // a consumed too few: b[j-1] >= a[ia] invalid
        else
            hi = i;
    }
    return lo;
}

/** Per-chunk walk state; mirrors the scalar loop's locals. */
struct Lane
{
    size_t ia = 0, ib = 0;
    size_t k = 0, kEnd = 0;
    long long cum = 0, best = 0;
    double sup = 0.0;
    /** Carried heads: a[ia] / b[ib], clamped to the last element once
     * a side is exhausted (the exhaustion flag, not the value, then
     * decides the boundary predicate). Carrying them saves the walk
     * from re-loading both heads twice per step. */
    double va = 0.0, vb = 0.0;
};

/**
 * One scalar-identical step. Force-inlined so the four copies in the
 * burst loop keep their lane state in registers — through a call,
 * every lane round-trips the stack and the chains re-serialize.
 *
 * Every select in here is written to compile branch-free (min ops,
 * index cmovs, a sign-mask add for cum): take_a is a 50/50 coin on
 * real data, and one mispredicted branch per step would serialize all
 * four lanes through the same recovery penalty — exactly the cost
 * this kernel exists to hide. The only branch left guards the eval
 * block on the integer gap reaching the lane's running best, which
 * happens O(sqrt n) times per call.
 */
__attribute__((always_inline)) static inline void
stepLane(Lane &s, const double *a, size_t na, const double *b,
         size_t nb, long long lnb, long long neg_lna)
{
    // v is only ever *equality*-compared against heads, so the
    // min's -0.0/+0.0 pick order cannot be observed (they compare
    // equal) and NaN is excluded by the caller's prescan.
    double v = std::min(s.va, s.vb);
    long long t = static_cast<long long>(s.va <= s.vb);
    s.ia += static_cast<size_t>(t);
    s.ib += static_cast<size_t>(1 - t);
    // take_a ? lnb : neg_lna, without the coin-flip branch.
    s.cum += neg_lna + ((lnb - neg_lna) & -t);
    s.va = a[std::min(s.ia, na - 1)];
    s.vb = b[std::min(s.ib, nb - 1)];
    // The integer guard goes first, so the tie-group boundary test
    // runs only behind that rarely taken branch instead of costing a
    // dozen uops on every step.
    long long gap = s.cum < 0 ? -s.cum : s.cum;
    if (gap >= s.best && (s.ia >= na || s.va != v) &&
        (s.ib >= nb || s.vb != v)) {
        s.best = gap;
        double fa =
            static_cast<double>(s.ia) / static_cast<double>(na);
        double fb =
            static_cast<double>(s.ib) / static_cast<double>(nb);
        s.sup = std::max(s.sup, std::fabs(fa - fb));
    }
}

} // anonymous namespace

double
ksSortedChunked(const double *a, size_t na, const double *b, size_t nb)
{
    // Empty sides take the reference path (the walk below indexes both
    // arrays); below the size floor the four co-rank searches cost
    // more than they save.
    if (na == 0 || nb == 0 || na + nb < 1024)
        return ksSortedScalar(a, na, b, nb);
    // Same overflow guard as the scalar kernel (which then takes the
    // pure-double reference walk).
    if (na > (size_t{1} << 31) || nb > (size_t{1} << 31))
        return ksSortedScalar(a, na, b, nb);

    const long long lna = static_cast<long long>(na);
    const long long lnb = static_cast<long long>(nb);
    constexpr size_t L = 4;
    const size_t N = na + nb;

    Lane lane[L];
    for (size_t l = 0; l < L; ++l) {
        lane[l].k = N * l / L;
        lane[l].kEnd = N * (l + 1) / L;
        lane[l].ia = coRank(lane[l].k, a, na, b, nb);
        lane[l].ib = lane[l].k - lane[l].ia;
        lane[l].cum = lnb * static_cast<long long>(lane[l].ia) -
                      lna * static_cast<long long>(lane[l].ib);
    }

    // One scalar-identical step of lane l, with fresh head loads and k
    // bookkeeping; used by the checked drain phase below.
    auto step = [&](Lane &s) {
        double va = a[s.ia], vb = b[s.ib];
        bool take_a = va <= vb;
        double v = take_a ? va : vb;
        s.ia += take_a ? 1 : 0;
        s.ib += take_a ? 0 : 1;
        s.cum += take_a ? lnb : -lna;
        ++s.k;
        if ((s.ia >= na || a[s.ia] != v) &&
            (s.ib >= nb || b[s.ib] != v)) {
            long long gap = s.cum < 0 ? -s.cum : s.cum;
            if (gap >= s.best) {
                s.best = gap;
                double fa = static_cast<double>(s.ia) /
                            static_cast<double>(na);
                double fb = static_cast<double>(s.ib) /
                            static_cast<double>(nb);
                s.sup = std::max(s.sup, std::fabs(fa - fb));
            }
        }
    };

    // Bulk phase: while every lane can take `burst` steps without any
    // bound check, run them unchecked and interleaved. The four lanes
    // live in distinct locals (not the array) so the compiler can keep
    // each chain's state in registers across the whole burst.
    {
        const long long neg_lna = -lna;
        Lane s0 = lane[0], s1 = lane[1], s2 = lane[2], s3 = lane[3];
        s0.va = a[s0.ia < na ? s0.ia : na - 1];
        s0.vb = b[s0.ib < nb ? s0.ib : nb - 1];
        s1.va = a[s1.ia < na ? s1.ia : na - 1];
        s1.vb = b[s1.ib < nb ? s1.ib : nb - 1];
        s2.va = a[s2.ia < na ? s2.ia : na - 1];
        s2.vb = b[s2.ib < nb ? s2.ib : nb - 1];
        s3.va = a[s3.ia < na ? s3.ia : na - 1];
        s3.vb = b[s3.ib < nb ? s3.ib : nb - 1];
        for (;;) {
            size_t burst = std::min(
                {s0.kEnd - s0.k, na - s0.ia, nb - s0.ib,
                 s1.kEnd - s1.k, na - s1.ia, nb - s1.ib,
                 s2.kEnd - s2.k, na - s2.ia, nb - s2.ib,
                 s3.kEnd - s3.k, na - s3.ia, nb - s3.ib});
            if (burst < 8)
                break;
            for (size_t s = 0; s < burst; ++s) {
                stepLane(s0, a, na, b, nb, lnb, neg_lna);
                stepLane(s1, a, na, b, nb, lnb, neg_lna);
                stepLane(s2, a, na, b, nb, lnb, neg_lna);
                stepLane(s3, a, na, b, nb, lnb, neg_lna);
            }
            s0.k += burst;
            s1.k += burst;
            s2.k += burst;
            s3.k += burst;
        }
        lane[0] = s0;
        lane[1] = s1;
        lane[2] = s2;
        lane[3] = s3;
    }
    // Drain phase: per-step checks, until every lane hits its diagonal
    // or an array end (the scalar loop's exit condition).
    for (bool any = true; any;) {
        any = false;
        for (size_t l = 0; l < L; ++l) {
            Lane &s = lane[l];
            if (s.k < s.kEnd && s.ia < na && s.ib < nb) {
                step(s);
                any = true;
            }
        }
    }

    long long best = 0;
    double sup = 0.0;
    for (size_t l = 0; l < L; ++l) {
        best = std::max(best, lane[l].best);
        sup = std::max(sup, lane[l].sup);
    }

    // The true main-loop exit state: the first lane that stopped on an
    // array end. Lanes past it took zero steps (their co-rank start is
    // already exhausted), so one always exists — the last lane's
    // diagonal is N, reachable only by consuming one array fully.
    size_t fia = na, fib = nb;
    long long cum = 0;
    for (size_t l = 0; l < L; ++l) {
        if (lane[l].ia >= na || lane[l].ib >= nb) {
            fia = lane[l].ia;
            fib = lane[l].ib;
            cum = lane[l].cum;
            break;
        }
    }

    // Tail, verbatim from ksSortedScalar: the last consumed value is
    // the largest consumed one (the walk emits in sorted order).
    double v;
    if (fia > 0 && fib > 0)
        v = a[fia - 1] >= b[fib - 1] ? a[fia - 1] : b[fib - 1];
    else
        v = fia > 0 ? a[fia - 1] : b[fib - 1];
    while (fia < na && a[fia] == v) {
        ++fia;
        cum += lnb;
    }
    while (fib < nb && b[fib] == v) {
        ++fib;
        cum -= lna;
    }
    {
        long long gap = cum < 0 ? -cum : cum;
        if (gap >= best) {
            double fa =
                static_cast<double>(fia) / static_cast<double>(na);
            double fb =
                static_cast<double>(fib) / static_cast<double>(nb);
            sup = std::max(sup, std::fabs(fa - fb));
        }
    }
    if (fia < na) {
        double fb = static_cast<double>(fib) / static_cast<double>(nb);
        sup = std::max(sup, std::fabs(1.0 - fb));
    }
    if (fib < nb) {
        double fa = static_cast<double>(fia) / static_cast<double>(na);
        sup = std::max(sup, std::fabs(fa - 1.0));
    }
    return sup;
}

} // namespace detail
} // namespace simd
} // namespace sharp
