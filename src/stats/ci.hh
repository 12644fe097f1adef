/**
 * @file
 * Confidence intervals.
 *
 * The paper's CI stopping rule "stops when the 95% right-tailed
 * confidence interval of all run-time measurements is smaller than a
 * threshold proportion of mean". We provide two-sided and one-sided
 * (right-tailed) Student-t intervals on the mean, a distribution-free
 * order-statistic interval on the median, and a log-scale interval for
 * log-normal data (back-transformed to a CI on the geometric mean).
 */

#ifndef SHARP_STATS_CI_HH
#define SHARP_STATS_CI_HH

#include <cstddef>
#include <vector>

namespace sharp
{
namespace stats
{

/** A confidence interval [lower, upper] at the given confidence level. */
struct ConfidenceInterval
{
    double lower;
    double upper;
    double level;

    /** Interval width. */
    double width() const { return upper - lower; }

    /**
     * Width relative to |center|, the quantity the CI stopping rule
     * thresholds (0 when the center is 0).
     */
    double relativeWidth(double center) const;
};

/**
 * Two-sided Student-t CI on the mean. Requires n >= 2.
 * @param level confidence level in (0, 1), e.g. 0.95.
 */
ConfidenceInterval meanCi(const std::vector<double> &x, double level);

/**
 * Right-tailed CI on the mean: [mean, mean + t_{level} * SE]. The rule
 * compares its width (t * SE) against threshold * mean. Requires n >= 2.
 */
ConfidenceInterval meanCiRightTailed(const std::vector<double> &x,
                                     double level);

/**
 * Distribution-free CI on the median from binomial order statistics
 * (conservative: the smallest order-statistic interval with coverage
 * >= level). For n < 6 no symmetric pair reaches typical levels, so
 * the sample range is returned with `level` set to its actual
 * binomial coverage 1 - 2^(1-n) (e.g. 0.75 at n = 3) instead of the
 * requested level.
 */
ConfidenceInterval medianCi(std::vector<double> x, double level);

/** medianCi over an already-sorted sample (ascending). */
ConfidenceInterval medianCiSorted(const std::vector<double> &sorted,
                                  double level);

/**
 * Coverage of the symmetric order-statistic pair (k, n+1-k) for the
 * median, P(k <= B <= n-k) with B ~ Binomial(n, 1/2), summed in the
 * exact term order medianCi uses. Exposed so incremental callers
 * (core::StatsCache) can warm-start the k search yet verify against
 * the identical batch arithmetic. Requires k <= n. The log
 * factorials come from a per-thread table that grows to the largest n
 * its thread has asked for (8 bytes per entry).
 */
double medianOrderCoverage(size_t n, size_t k);

/**
 * The 1-based lower order-statistic index k chosen by medianCi's
 * descending scan: the largest k in [1, n/2] whose coverage reaches
 * @p level, or 1 if none does. Requires n >= 6.
 */
size_t medianCiLowerK(size_t n, double level);

/**
 * CI on the geometric mean via a t-interval on log-values,
 * back-transformed; appropriate for log-normal run times.
 * Requires all values > 0 and n >= 2.
 */
ConfidenceInterval geometricMeanCi(const std::vector<double> &x,
                                   double level);

/**
 * CI on an arbitrary quantile @p p via binomial order statistics.
 * Used by the tail-stability stopping rule (e.g. p = 0.99).
 */
ConfidenceInterval quantileCi(std::vector<double> x, double p,
                              double level);

/** quantileCi over an already-sorted sample (ascending). */
ConfidenceInterval quantileCiSorted(const std::vector<double> &sorted,
                                    double p, double level);

/**
 * The 0-based order-statistic indices quantileCi selects, plus the
 * number of binomial CDF evaluations (incomplete-beta calls, O(log n))
 * made to find them. Pure function of (n, p, level) — no sample
 * needed — so incremental callers can pick order statistics out of a
 * sorted view without re-sorting.
 */
struct QuantileCiIndices
{
    size_t lower;
    size_t upper;
    size_t pmfTerms;
};

QuantileCiIndices quantileCiIndices(size_t n, double p, double level);

} // namespace stats
} // namespace sharp

#endif // SHARP_STATS_CI_HH
