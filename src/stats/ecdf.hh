/**
 * @file
 * Empirical cumulative distribution function — the central artifact of
 * SHARP's distribution-based comparisons: the KS statistic is a supremum
 * distance between two of these.
 */

#ifndef SHARP_STATS_ECDF_HH
#define SHARP_STATS_ECDF_HH

#include <cstddef>
#include <functional>
#include <vector>

namespace sharp
{
namespace stats
{

/**
 * Right-continuous ECDF over a sample: F(x) = #{x_i <= x} / n.
 */
class Ecdf
{
  public:
    /** Build from a sample (copied and sorted). Must be non-empty. */
    explicit Ecdf(std::vector<double> sample);

    /** Evaluate F(x). */
    double operator()(double x) const;

    /** Inverse ECDF: smallest sample value with F(value) >= p. */
    double inverse(double p) const;

    /** Number of underlying observations. */
    size_t size() const { return sorted.size(); }

    /** The sorted sample (ascending). */
    const std::vector<double> &sortedSample() const { return sorted; }

  private:
    std::vector<double> sorted;
};

/**
 * Two-sample Kolmogorov–Smirnov statistic:
 * sup_x |F1(x) - F2(x)|, computed exactly by a linear merge of the two
 * sorted samples. This is the paper's distribution similarity metric
 * and the basis of the KS stopping rule.
 *
 * Both samples must be non-empty.
 */
double ksStatistic(const std::vector<double> &a,
                   const std::vector<double> &b);

/** KS statistic over pre-built ECDFs. */
double ksStatistic(const Ecdf &a, const Ecdf &b);

/**
 * KS statistic over two already-sorted samples (ascending) — the
 * linear merge walk with no copying or sorting. This is the form the
 * incremental statistics engine (core::StatsCache) evaluates against
 * its maintained sorted runs; bit-identical to ksStatistic on the same
 * multisets, and to the reference walk in src/simd
 * (simd::detail::ksSortedReferenceScalar) that specifies it.
 */
double ksStatisticSorted(const std::vector<double> &a,
                         const std::vector<double> &b);

/**
 * One-sample Kolmogorov–Smirnov statistic of an already-sorted sample
 * (ascending) against a theoretical CDF: sup_x |F_n(x) - F(x)|. Used
 * by the distribution classifier to score candidate parametric fits.
 * @p cdf must be non-decreasing into [0, 1].
 */
double ksStatisticAgainstSorted(const std::vector<double> &sorted,
                                const std::function<double(double)> &cdf);

} // namespace stats
} // namespace sharp

#endif // SHARP_STATS_ECDF_HH
