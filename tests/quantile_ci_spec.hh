/**
 * @file
 * The reference scan for stats::quantileCiIndices: the prefix sum of
 * binomial PMF terms it ran before it moved to binary searches over
 * the incomplete-beta CDF. The searches must pick the same order
 * statistics as this scan.
 *
 * The scan is split in two so an equality sweep can sum the prefix
 * once per (n, p) and read it at several levels, and it takes the log
 * factorials from a table; both keep every bit of the original
 * arithmetic, which computed the same values inline.
 */

#ifndef SHARP_TESTS_QUANTILE_CI_SPEC_HH
#define SHARP_TESTS_QUANTILE_CI_SPEC_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "stats/ci.hh"
#include "stats/special.hh"

namespace sharp
{
namespace test
{

/** logGamma(k + 1) for k = 0..n. */
inline std::vector<double>
logFactorials(size_t n)
{
    std::vector<double> out(n + 1);
    for (size_t k = 0; k <= n; ++k)
        out[k] = stats::logGamma(static_cast<double>(k) + 1.0);
    return out;
}

/**
 * Cumulative binomial probabilities cum[k] = min(P(B <= k), 1) for
 * B ~ Binomial(n, p), summed term by term up to the first entry that
 * reaches @p stopAt (or to k = n). @p logFact is logFactorials(m) for
 * some m >= n.
 */
inline std::vector<double>
binomialPrefixSpec(size_t n, double p, double stopAt,
                   const std::vector<double> &logFact)
{
    double log_p = std::log(p);
    double log_q = std::log1p(-p);
    std::vector<double> cum;
    cum.reserve(n);
    double acc = 0.0;
    for (size_t k = 0; k <= n; ++k) {
        double log_choose = logFact[n] - logFact[k] - logFact[n - k];
        double log_pmf = log_choose + static_cast<double>(k) * log_p +
                         static_cast<double>(n - k) * log_q;
        acc += std::exp(log_pmf);
        cum.push_back(std::min(acc, 1.0));
        if (cum.back() >= stopAt)
            break;
    }
    return cum;
}

/**
 * {lower, upper} 0-based order-statistic indices scanned from @p cum,
 * a binomialPrefixSpec that runs at least to the first entry reaching
 * 1 - (1 - level) / 2: neither scan reads past that entry.
 */
inline std::pair<size_t, size_t>
quantileCiIndicesFromPrefix(const std::vector<double> &cum, size_t n,
                            double level)
{
    double target_low = (1.0 - level) / 2.0;
    double target_high = 1.0 - (1.0 - level) / 2.0;
    size_t lower_idx = 0;
    while (lower_idx < n && cum[lower_idx] < target_low)
        ++lower_idx;
    if (lower_idx > 0)
        --lower_idx;

    size_t upper_idx = lower_idx;
    while (upper_idx < n - 1 && cum[upper_idx] < target_high)
        ++upper_idx;

    return {lower_idx, upper_idx};
}

/** What sweepQuantileCiIndices found. */
struct QuantileCiSweep
{
    size_t cases = 0;
    /** Cases whose indices differ from the spec's. */
    size_t mismatches = 0;
    /** Cases with more than 2 bit_width(n) CDF evaluations. */
    size_t overEvalBound = 0;
    std::string firstMismatch;
};

/**
 * stats::quantileCiIndices against the spec at each n in @p sizes,
 * p in {0.5, 0.9, 0.95, 0.99} and level in {0.9, 0.95, 0.99}, with
 * one prefix sum per (n, p) read at all three levels.
 */
inline QuantileCiSweep
sweepQuantileCiIndices(const std::vector<size_t> &sizes)
{
    QuantileCiSweep sweep;
    size_t largest = *std::max_element(sizes.begin(), sizes.end());
    std::vector<double> log_fact = logFactorials(largest);
    for (size_t n : sizes) {
        for (double p : {0.5, 0.9, 0.95, 0.99}) {
            // Summed to the widest level's upper tail, the prefix holds
            // every entry the narrower levels' scans read.
            std::vector<double> cum = binomialPrefixSpec(
                n, p, 1.0 - (1.0 - 0.99) / 2.0, log_fact);
            for (double level : {0.9, 0.95, 0.99}) {
                auto want = quantileCiIndicesFromPrefix(cum, n, level);
                stats::QuantileCiIndices got =
                    stats::quantileCiIndices(n, p, level);
                ++sweep.cases;
                if (got.pmfTerms > 2 * static_cast<size_t>(
                                           std::bit_width(n)))
                    ++sweep.overEvalBound;
                if (got.lower == want.first && got.upper == want.second)
                    continue;
                if (sweep.mismatches++ == 0) {
                    sweep.firstMismatch =
                        "n=" + std::to_string(n) + " p=" +
                        std::to_string(p) + " level=" +
                        std::to_string(level) + ": got [" +
                        std::to_string(got.lower) + ", " +
                        std::to_string(got.upper) + "], spec [" +
                        std::to_string(want.first) + ", " +
                        std::to_string(want.second) + "]";
                }
            }
        }
    }
    return sweep;
}

} // namespace test
} // namespace sharp

#endif // SHARP_TESTS_QUANTILE_CI_SPEC_HH
