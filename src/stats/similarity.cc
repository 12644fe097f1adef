#include "stats/similarity.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/descriptive.hh"
#include "stats/ecdf.hh"
#include "stats/kde.hh"

namespace sharp
{
namespace stats
{

namespace
{

/**
 * Resample @p sorted to exactly @p n points by quantile matching
 * (type-7 interpolation). Used to align unequal-length samples for the
 * paired NAMD metric.
 */
std::vector<double>
resampleQuantiles(const std::vector<double> &sorted, size_t n)
{
    std::vector<double> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        double p = n == 1 ? 0.5
                          : static_cast<double>(i) /
                                static_cast<double>(n - 1);
        out.push_back(quantileSorted(sorted, p));
    }
    return out;
}

} // anonymous namespace

double
namdSorted(const std::vector<double> &sx_in,
           const std::vector<double> &sy_in)
{
    if (sx_in.empty() || sy_in.empty())
        throw std::invalid_argument("namd requires non-empty samples");

    // Only the longer sample is materialized (quantile-resampled down
    // to the shorter length); equal-length inputs are used in place.
    size_t n = std::min(sx_in.size(), sy_in.size());
    std::vector<double> resampled_x, resampled_y;
    if (sx_in.size() != n)
        resampled_x = resampleQuantiles(sx_in, n);
    if (sy_in.size() != n)
        resampled_y = resampleQuantiles(sy_in, n);
    const std::vector<double> &sx = resampled_x.empty() ? sx_in
                                                        : resampled_x;
    const std::vector<double> &sy = resampled_y.empty() ? sy_in
                                                        : resampled_y;

    double mean_x = mean(sx);
    double mean_y = mean(sy);
    if (mean_x == 0.0 || mean_y == 0.0) {
        throw std::invalid_argument(
            "namd requires samples with nonzero means");
    }

    double abs_sum = 0.0;
    for (size_t i = 0; i < n; ++i)
        abs_sum += std::fabs(sx[i] - sy[i]);
    double mad = abs_sum / static_cast<double>(n);
    return 0.5 * (mad / mean_x + mad / mean_y);
}

double
namd(const std::vector<double> &x, const std::vector<double> &y)
{
    if (x.empty() || y.empty())
        throw std::invalid_argument("namd requires non-empty samples");

    std::vector<double> sx = x, sy = y;
    std::sort(sx.begin(), sx.end());
    std::sort(sy.begin(), sy.end());
    return namdSorted(sx, sy);
}

double
wasserstein1Sorted(const std::vector<double> &sx,
                   const std::vector<double> &sy)
{
    if (sx.empty() || sy.empty())
        throw std::invalid_argument("wasserstein1 requires non-empty "
                                    "samples");

    // W1 = integral over p of |Qx(p) - Qy(p)|; evaluate on the merged
    // probability grid i/na and j/nb, which is exact for step quantile
    // functions.
    size_t na = sx.size(), nb = sy.size();
    size_t ia = 0, ib = 0;
    double prev_p = 0.0;
    double dist = 0.0;
    while (ia < na && ib < nb) {
        double pa = static_cast<double>(ia + 1) / static_cast<double>(na);
        double pb = static_cast<double>(ib + 1) / static_cast<double>(nb);
        double p = std::min(pa, pb);
        dist += (p - prev_p) * std::fabs(sx[ia] - sy[ib]);
        prev_p = p;
        if (pa <= p)
            ++ia;
        if (pb <= p)
            ++ib;
    }
    return dist;
}

double
wasserstein1(const std::vector<double> &x, const std::vector<double> &y)
{
    if (x.empty() || y.empty())
        throw std::invalid_argument("wasserstein1 requires non-empty "
                                    "samples");
    std::vector<double> sx = x, sy = y;
    std::sort(sx.begin(), sx.end());
    std::sort(sy.begin(), sy.end());
    return wasserstein1Sorted(sx, sy);
}

double
overlapCoefficient(const std::vector<double> &x,
                   const std::vector<double> &y)
{
    if (x.empty() || y.empty())
        throw std::invalid_argument(
            "overlapCoefficient requires non-empty samples");

    Kde kx(x), ky(y);
    auto [min_x, max_x] = std::minmax_element(x.begin(), x.end());
    auto [min_y, max_y] = std::minmax_element(y.begin(), y.end());
    double lo = std::min(*min_x, *min_y) -
                3.0 * std::max(kx.bandwidth(), ky.bandwidth());
    double hi = std::max(*max_x, *max_y) +
                3.0 * std::max(kx.bandwidth(), ky.bandwidth());

    const size_t points = 512;
    double step = (hi - lo) / static_cast<double>(points - 1);
    if (step <= 0.0)
        return 1.0; // both degenerate at the same point
    double overlap = 0.0;
    for (size_t i = 0; i < points; ++i) {
        double t = lo + step * static_cast<double>(i);
        overlap += std::min(kx(t), ky(t)) * step;
    }
    return std::clamp(overlap, 0.0, 1.0);
}

double
jensenShannonDivergence(const std::vector<double> &x,
                        const std::vector<double> &y, size_t bins)
{
    if (x.empty() || y.empty())
        throw std::invalid_argument(
            "jensenShannonDivergence requires non-empty samples");
    if (bins == 0)
        throw std::invalid_argument("jensenShannonDivergence needs bins");

    auto [min_x, max_x] = std::minmax_element(x.begin(), x.end());
    auto [min_y, max_y] = std::minmax_element(y.begin(), y.end());
    double lo = std::min(*min_x, *min_y);
    double hi = std::max(*max_x, *max_y);
    if (hi <= lo)
        return 0.0;

    auto discretize = [&](const std::vector<double> &sample) {
        std::vector<double> probs(bins, 0.0);
        double width = (hi - lo) / static_cast<double>(bins);
        for (double v : sample) {
            size_t idx = static_cast<size_t>((v - lo) / width);
            if (idx >= bins)
                idx = bins - 1;
            probs[idx] += 1.0;
        }
        for (double &p : probs)
            p /= static_cast<double>(sample.size());
        return probs;
    };

    std::vector<double> px = discretize(x);
    std::vector<double> py = discretize(y);

    auto klTerm = [](double p, double m) {
        if (p <= 0.0 || m <= 0.0)
            return 0.0;
        return p * std::log(p / m);
    };

    double js = 0.0;
    for (size_t i = 0; i < bins; ++i) {
        double m = 0.5 * (px[i] + py[i]);
        js += 0.5 * klTerm(px[i], m) + 0.5 * klTerm(py[i], m);
    }
    return std::max(0.0, js);
}

SimilarityReport
SimilarityReport::compute(const std::vector<double> &x,
                          const std::vector<double> &y)
{
    // One sort per sample serves NAMD, KS, and Wasserstein; the KDE
    // overlap and the histogram JS divergence take the raw samples —
    // the KDE picks its bandwidth in arrival order before sorting
    // internally, so handing it the sorted copies would change it.
    std::vector<double> sx = x, sy = y;
    std::sort(sx.begin(), sx.end());
    std::sort(sy.begin(), sy.end());

    SimilarityReport report;
    report.namd = namdSorted(sx, sy);
    report.ks = ksStatisticSorted(sx, sy);
    report.wasserstein = wasserstein1Sorted(sx, sy);
    report.overlap = overlapCoefficient(x, y);
    report.jensenShannon = jensenShannonDivergence(x, y);
    return report;
}

} // namespace stats
} // namespace sharp
