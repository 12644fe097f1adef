#include "stats/ci.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "stats/descriptive.hh"
#include "stats/special.hh"

namespace sharp
{
namespace stats
{

double
ConfidenceInterval::relativeWidth(double center) const
{
    if (center == 0.0)
        return 0.0;
    return width() / std::fabs(center);
}

namespace
{

void
checkLevel(double level)
{
    if (!(level > 0.0 && level < 1.0))
        throw std::invalid_argument("confidence level must be in (0, 1)");
}

/**
 * log(m!) as logGamma(m + 1) returns it, for m = 0..size() - 1. Each
 * coverage term needs three log factorials, and the median-CI walks
 * ask for the same ones round after round; a table entry is the value
 * the same logGamma call returns, so a read is exact by construction.
 * One table per thread, so a read takes no lock; it grows to the
 * largest n its thread has asked for and lives as long as the thread.
 */
thread_local std::vector<double> logFactorials;

/** The calling thread's table, grown to hold log(n!). */
const double *
logFactorialsTo(size_t n)
{
    std::vector<double> &lf = logFactorials;
    while (lf.size() <= n)
        lf.push_back(logGamma(static_cast<double>(lf.size()) + 1.0));
    return lf.data();
}

} // anonymous namespace

ConfidenceInterval
meanCi(const std::vector<double> &x, double level)
{
    checkLevel(level);
    if (x.size() < 2)
        throw std::invalid_argument("meanCi requires n >= 2");
    double m = mean(x);
    double se = standardError(x);
    double dof = static_cast<double>(x.size() - 1);
    double t = studentTQuantile(0.5 + level / 2.0, dof);
    return {m - t * se, m + t * se, level};
}

ConfidenceInterval
meanCiRightTailed(const std::vector<double> &x, double level)
{
    checkLevel(level);
    if (x.size() < 2)
        throw std::invalid_argument("meanCiRightTailed requires n >= 2");
    double m = mean(x);
    double se = standardError(x);
    double dof = static_cast<double>(x.size() - 1);
    double t = studentTQuantile(level, dof);
    return {m, m + t * se, level};
}

double
medianOrderCoverage(size_t n, size_t k)
{
    // Each term is C(n, j) 2^-n. Keep the operands and their order: the
    // sum must equal, bit for bit, the one three logGamma calls per term
    // give (tests/median_ci_spec.hh).
    const double *lf = logFactorialsTo(n);
    double coverage = 0.0;
    for (size_t j = k; j <= n - k; ++j)
        coverage += std::exp(lf[n] - lf[j] - lf[n - j] -
                             static_cast<double>(n) * std::log(2.0));
    return coverage;
}

size_t
medianCiLowerK(size_t n, double level)
{
    // Find the symmetric order-statistic pair (k, n+1-k) with coverage
    // P(k <= B < n+1-k) >= level where B ~ Binomial(n, 1/2).
    // Start from the innermost pair and widen until coverage suffices.
    size_t k = n / 2; // 1-based lower index candidate
    while (k >= 1) {
        if (medianOrderCoverage(n, k) >= level)
            break;
        --k;
    }
    if (k < 1)
        k = 1;
    return k;
}

ConfidenceInterval
medianCiSorted(const std::vector<double> &sorted, double level)
{
    checkLevel(level);
    if (sorted.empty())
        throw std::invalid_argument("medianCi requires a non-empty sample");
    size_t n = sorted.size();
    if (n < 6) {
        // Too small for a meaningful order-statistic interval at the
        // requested level; report the sample range labelled with its
        // *actual* binomial coverage, P(X_(1) <= median <= X_(n)) =
        // 1 - 2 * (1/2)^n, rather than overstating it as `level`.
        double coverage =
            1.0 - std::pow(0.5, static_cast<double>(n) - 1.0);
        return {sorted.front(), sorted.back(), coverage};
    }

    size_t k = medianCiLowerK(n, level);
    size_t lower_idx = k - 1;          // 0-based
    size_t upper_idx = n - k;          // 0-based (n+1-k in 1-based)
    return {sorted[lower_idx], sorted[upper_idx], level};
}

ConfidenceInterval
medianCi(std::vector<double> x, double level)
{
    checkLevel(level);
    if (x.empty())
        throw std::invalid_argument("medianCi requires a non-empty sample");
    std::sort(x.begin(), x.end());
    return medianCiSorted(x, level);
}

ConfidenceInterval
geometricMeanCi(const std::vector<double> &x, double level)
{
    checkLevel(level);
    if (x.size() < 2)
        throw std::invalid_argument("geometricMeanCi requires n >= 2");
    std::vector<double> logs;
    logs.reserve(x.size());
    for (double v : x) {
        if (v <= 0.0) {
            throw std::invalid_argument(
                "geometricMeanCi requires positive values");
        }
        logs.push_back(std::log(v));
    }
    ConfidenceInterval log_ci = meanCi(logs, level);
    return {std::exp(log_ci.lower), std::exp(log_ci.upper), level};
}

QuantileCiIndices
quantileCiIndices(size_t n, double p, double level)
{
    checkLevel(level);
    if (!(p > 0.0 && p < 1.0))
        throw std::invalid_argument("quantileCi requires p in (0, 1)");
    if (n == 0)
        throw std::invalid_argument("quantileCi requires a sample");

    // F(k) = P(B <= k) for B ~ Binomial(n, p) is I_{1-p}(n - k, k + 1)
    // for k < n. F is nondecreasing, so each index is a binary search
    // over O(log n) evaluations of F.
    size_t cdf_evals = 0;
    auto cdf = [&](size_t k) {
        ++cdf_evals;
        return regularizedBeta(1.0 - p, static_cast<double>(n - k),
                               static_cast<double>(k) + 1.0);
    };
    // The first k in [from, to) with F(k) >= target, or `to` if none.
    auto firstReaching = [&](size_t from, size_t to, double target) {
        while (from < to) {
            size_t mid = from + (to - from) / 2;
            if (cdf(mid) < target)
                from = mid + 1;
            else
                to = mid;
        }
        return from;
    };

    // Order statistics [l+1, u] (1-based) with P(l <= B < u) >= level:
    // l is one below the first k whose F reaches the lower tail, u the
    // first k from l on whose F reaches the upper one, both clamped to
    // the sample.
    double target_low = (1.0 - level) / 2.0;
    double target_high = 1.0 - (1.0 - level) / 2.0;
    size_t lower_idx = firstReaching(0, n, target_low);
    if (lower_idx > 0)
        --lower_idx;
    size_t upper_idx = firstReaching(lower_idx, n - 1, target_high);

    return {lower_idx, upper_idx, cdf_evals};
}

ConfidenceInterval
quantileCiSorted(const std::vector<double> &sorted, double p, double level)
{
    QuantileCiIndices idx = quantileCiIndices(sorted.size(), p, level);
    return {sorted[idx.lower], sorted[idx.upper], level};
}

ConfidenceInterval
quantileCi(std::vector<double> x, double p, double level)
{
    checkLevel(level);
    if (!(p > 0.0 && p < 1.0))
        throw std::invalid_argument("quantileCi requires p in (0, 1)");
    if (x.empty())
        throw std::invalid_argument("quantileCi requires a sample");
    std::sort(x.begin(), x.end());
    return quantileCiSorted(x, p, level);
}

} // namespace stats
} // namespace sharp
