#include "stats/descriptive.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "simd/dispatch.hh"
#include "util/string_utils.hh"

namespace sharp
{
namespace stats
{

namespace
{

void
requireNonEmpty(const std::vector<double> &values, const char *who)
{
    if (values.empty())
        throw std::invalid_argument(std::string(who) +
                                    " requires a non-empty sample");
}

} // anonymous namespace

double
mean(const std::vector<double> &values)
{
    requireNonEmpty(values, "mean");
    // Pairwise-ish accumulation is overkill here; Kahan summation keeps
    // error bounded for the long series the launcher accumulates. The
    // compensation feeds the next add, so the loop is serial by
    // definition: lanes would change the reduction order and the bits.
    double sum = 0.0, comp = 0.0;
    for (double v : values) {
        double y = v - comp;
        double t = sum + y;
        comp = (t - sum) - y;
        sum = t;
    }
    return sum / static_cast<double>(values.size());
}

double
variance(const std::vector<double> &values)
{
    requireNonEmpty(values, "variance");
    size_t n = values.size();
    if (n < 2)
        return 0.0;
    double m = mean(values);
    double ss = simd::kernels().sumSquaredDeviations(values.data(), n, m);
    return ss / static_cast<double>(n - 1);
}

double
stddev(const std::vector<double> &values)
{
    return std::sqrt(variance(values));
}

double
geometricMean(const std::vector<double> &values)
{
    requireNonEmpty(values, "geometricMean");
    double log_sum = 0.0;
    for (double v : values) {
        if (v <= 0.0) {
            throw std::invalid_argument(
                "geometricMean requires positive values");
        }
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
harmonicMean(const std::vector<double> &values)
{
    requireNonEmpty(values, "harmonicMean");
    double inv_sum = 0.0;
    for (double v : values) {
        if (v <= 0.0) {
            throw std::invalid_argument(
                "harmonicMean requires positive values");
        }
        inv_sum += 1.0 / v;
    }
    return static_cast<double>(values.size()) / inv_sum;
}

double
quantileSorted(const std::vector<double> &sorted, double p)
{
    requireNonEmpty(sorted, "quantile");
    if (p < 0.0 || p > 1.0)
        throw std::invalid_argument("quantile requires p in [0, 1]");
    size_t n = sorted.size();
    if (n == 1)
        return sorted[0];
    double h = (static_cast<double>(n) - 1.0) * p;
    size_t lo = static_cast<size_t>(std::floor(h));
    size_t hi = std::min(lo + 1, n - 1);
    double frac = h - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double
quantile(std::vector<double> values, double p)
{
    requireNonEmpty(values, "quantile");
    std::sort(values.begin(), values.end());
    return quantileSorted(values, p);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
iqrSorted(const std::vector<double> &sorted)
{
    requireNonEmpty(sorted, "iqr");
    return quantileSorted(sorted, 0.75) - quantileSorted(sorted, 0.25);
}

double
iqr(std::vector<double> values)
{
    requireNonEmpty(values, "iqr");
    std::sort(values.begin(), values.end());
    return iqrSorted(values);
}

double
medianAbsoluteDeviationSorted(const std::vector<double> &sorted)
{
    requireNonEmpty(sorted, "medianAbsoluteDeviation");
    double med = quantileSorted(sorted, 0.5);
    std::vector<double> deviations;
    deviations.reserve(sorted.size());
    for (double v : sorted)
        deviations.push_back(std::fabs(v - med));
    std::sort(deviations.begin(), deviations.end());
    return quantileSorted(deviations, 0.5);
}

double
medianAbsoluteDeviation(std::vector<double> values)
{
    requireNonEmpty(values, "medianAbsoluteDeviation");
    // One in-place sort serves both the median and the deviation pass,
    // where this used to copy-and-sort twice inside median().
    std::sort(values.begin(), values.end());
    return medianAbsoluteDeviationSorted(values);
}

double
trimmedMean(std::vector<double> values, double trim)
{
    requireNonEmpty(values, "trimmedMean");
    if (trim < 0.0 || trim >= 0.5)
        throw std::invalid_argument("trimmedMean requires trim in [0, 0.5)");
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    size_t cut = static_cast<size_t>(
        std::floor(trim * static_cast<double>(n)));
    if (2 * cut >= n)
        cut = (n - 1) / 2;
    double sum = 0.0;
    for (size_t i = cut; i < n - cut; ++i)
        sum += values[i];
    return sum / static_cast<double>(n - 2 * cut);
}

double
skewness(const std::vector<double> &values)
{
    requireNonEmpty(values, "skewness");
    size_t n = values.size();
    if (n < 3)
        return 0.0;
    double m = mean(values);
    double m2 = 0.0, m3 = 0.0;
    for (double v : values) {
        double d = v - m;
        m2 += d * d;
        m3 += d * d * d;
    }
    double nd = static_cast<double>(n);
    m2 /= nd;
    m3 /= nd;
    if (m2 <= 0.0)
        return 0.0;
    double g1 = m3 / std::pow(m2, 1.5);
    return g1 * std::sqrt(nd * (nd - 1.0)) / (nd - 2.0);
}

double
excessKurtosis(const std::vector<double> &values)
{
    requireNonEmpty(values, "excessKurtosis");
    size_t n = values.size();
    if (n < 4)
        return 0.0;
    double m = mean(values);
    double m2 = 0.0, m4 = 0.0;
    for (double v : values) {
        double d = v - m;
        double d2 = d * d;
        m2 += d2;
        m4 += d2 * d2;
    }
    double nd = static_cast<double>(n);
    m2 /= nd;
    m4 /= nd;
    if (m2 <= 0.0)
        return 0.0;
    double g2 = m4 / (m2 * m2) - 3.0;
    return ((nd + 1.0) * g2 + 6.0) * (nd - 1.0) / ((nd - 2.0) * (nd - 3.0));
}

double
coefficientOfVariation(const std::vector<double> &values)
{
    requireNonEmpty(values, "coefficientOfVariation");
    double m = mean(values);
    if (m == 0.0)
        return 0.0;
    return stddev(values) / std::fabs(m);
}

double
standardError(const std::vector<double> &values)
{
    requireNonEmpty(values, "standardError");
    return stddev(values) / std::sqrt(static_cast<double>(values.size()));
}

Summary
Summary::compute(const std::vector<double> &values)
{
    requireNonEmpty(values, "Summary::compute");
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    return compute(values, sorted);
}

Summary
Summary::compute(const std::vector<double> &values,
                 const std::vector<double> &sorted)
{
    requireNonEmpty(values, "Summary::compute");

    Summary s;
    s.n = values.size();
    // One Kahan pass for the mean and one deviation pass for the
    // spread; CV and SE are derived from those instead of re-running
    // the same loops three more times. skewness/excessKurtosis keep
    // their own calls so their accumulation order (and therefore their
    // bits) stay exactly those of the standalone functions.
    s.mean = sharp::stats::mean(values);
    s.stddev = sharp::stats::stddev(values);
    s.min = sorted.front();
    s.max = sorted.back();
    s.median = quantileSorted(sorted, 0.5);
    s.q1 = quantileSorted(sorted, 0.25);
    s.q3 = quantileSorted(sorted, 0.75);
    s.p05 = quantileSorted(sorted, 0.05);
    s.p95 = quantileSorted(sorted, 0.95);
    s.p99 = quantileSorted(sorted, 0.99);
    s.skewness = sharp::stats::skewness(values);
    s.excessKurtosis = sharp::stats::excessKurtosis(values);
    s.coefficientOfVariation =
        s.mean == 0.0 ? 0.0 : s.stddev / std::fabs(s.mean);
    s.standardError =
        s.stddev / std::sqrt(static_cast<double>(values.size()));
    return s;
}

std::string
Summary::toString() const
{
    using util::formatDouble;
    return "n=" + std::to_string(n) + " mean=" + formatDouble(mean, 4) +
           " sd=" + formatDouble(stddev, 4) +
           " median=" + formatDouble(median, 4) +
           " [" + formatDouble(min, 4) + ", " + formatDouble(max, 4) + "]";
}

} // namespace stats
} // namespace sharp
