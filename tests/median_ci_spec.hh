/**
 * @file
 * The reference for stats::medianOrderCoverage: the per-term loop it
 * ran before it read log factorials from a per-thread table, three
 * Lanczos logGamma calls and an exp for every binomial PMF term. The
 * table must give the same coverage bits for every (n, k), and so the
 * same k and the same interval.
 */

#ifndef SHARP_TESTS_MEDIAN_CI_SPEC_HH
#define SHARP_TESTS_MEDIAN_CI_SPEC_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "stats/ci.hh"
#include "stats/special.hh"

namespace sharp
{
namespace test
{

/** C(n,k) p^k q^(n-k) at p = q = 0.5, from three logGamma calls. */
inline double
binomialHalfPmfSpec(size_t n, size_t k)
{
    double log_choose = stats::logGamma(static_cast<double>(n) + 1.0) -
                        stats::logGamma(static_cast<double>(k) + 1.0) -
                        stats::logGamma(static_cast<double>(n - k) + 1.0);
    return std::exp(log_choose -
                    static_cast<double>(n) * std::log(2.0));
}

/** P(k <= B <= n-k) for B ~ Binomial(n, 1/2), summed term by term. */
inline double
medianOrderCoverageSpec(size_t n, size_t k)
{
    double coverage = 0.0;
    for (size_t j = k; j <= n - k; ++j)
        coverage += binomialHalfPmfSpec(n, j);
    return coverage;
}

/** What sweepMedianOrderCoverage found. */
struct MedianCoverageSweep
{
    /** (n, k) pairs whose coverage was compared. */
    size_t cases = 0;
    /** Pairs whose coverage bits differ from the spec's. */
    size_t mismatches = 0;
    /** (n, level) whose medianCiLowerK is not the spec scan's k. */
    size_t wrongK = 0;
    std::string firstMismatch;
};

/** Compare one (n, k) coverage with the spec's, bit for bit. */
inline void
checkCoverage(MedianCoverageSweep &sweep, size_t n, size_t k,
              double spec)
{
    double got = stats::medianOrderCoverage(n, k);
    ++sweep.cases;
    if (std::bit_cast<uint64_t>(got) == std::bit_cast<uint64_t>(spec))
        return;
    if (sweep.mismatches++ == 0) {
        std::ostringstream first;
        first << "n=" << n << " k=" << k << ": got " << std::hexfloat
              << got << ", spec " << spec;
        sweep.firstMismatch = first.str();
    }
}

/** The walked levels: the rules' 0.95 and one on either side. */
inline constexpr double kMedianSweepLevels[] = {0.9, 0.95, 0.99};

/**
 * stats::medianOrderCoverage against the spec. At each n >= 6 in
 * @p everyK, every k in [1, n/2], and medianCiLowerK at each walked
 * level against the spec's descending scan. At each n in @p walked,
 * the k that medianCiLowerK picks at each walked level and the three
 * k on either side, and that the spec's coverage crosses the level
 * at the picked k; far from those k a sum is O(n) spec terms.
 */
inline MedianCoverageSweep
sweepMedianOrderCoverage(const std::vector<size_t> &everyK,
                         const std::vector<size_t> &walked)
{
    MedianCoverageSweep sweep;
    std::vector<double> terms, spec;
    for (size_t n : everyK) {
        // Each spec term is a function of (n, j) alone, so one n's terms
        // are computed once and summed per k in the spec's order: the
        // same bits at O(n) logGamma calls instead of O(n^2).
        terms.resize(n + 1);
        for (size_t j = 0; j <= n; ++j)
            terms[j] = binomialHalfPmfSpec(n, j);
        spec.assign(n / 2 + 1, 0.0);
        for (size_t k = 1; k <= n / 2; ++k) {
            for (size_t j = k; j <= n - k; ++j)
                spec[k] += terms[j];
            checkCoverage(sweep, n, k, spec[k]);
        }
        for (double level : kMedianSweepLevels) {
            size_t want = n / 2;
            while (want > 1 && spec[want] < level)
                --want;
            sweep.wrongK += stats::medianCiLowerK(n, level) != want;
        }
    }
    for (size_t n : walked) {
        for (double level : kMedianSweepLevels) {
            size_t picked = stats::medianCiLowerK(n, level);
            size_t from = picked > 3 ? picked - 3 : 1;
            size_t to = std::min(picked + 3, n / 2);
            for (size_t k = from; k <= to; ++k)
                checkCoverage(sweep, n, k, medianOrderCoverageSpec(n, k));
            bool reaches = picked == 1 ||
                           medianOrderCoverageSpec(n, picked) >= level;
            bool above_fails =
                picked == n / 2 ||
                medianOrderCoverageSpec(n, picked + 1) < level;
            sweep.wrongK += !(reaches && above_fails);
        }
    }
    return sweep;
}

} // namespace test
} // namespace sharp

#endif // SHARP_TESTS_MEDIAN_CI_SPEC_HH
