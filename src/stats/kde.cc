#include "stats/kde.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "stats/descriptive.hh"

namespace sharp
{
namespace stats
{

double
kdeBandwidth(const std::vector<double> &values, BandwidthRule rule)
{
    if (values.empty())
        throw std::invalid_argument("kdeBandwidth requires a sample");
    double n = static_cast<double>(values.size());
    double sd = stddev(values);
    double spread_iqr = iqr(values) / 1.34;

    double scale;
    switch (rule) {
      case BandwidthRule::Silverman:
        if (sd > 0.0 && spread_iqr > 0.0)
            scale = 0.9 * std::min(sd, spread_iqr);
        else
            scale = 0.9 * std::max(sd, spread_iqr);
        break;
      case BandwidthRule::Scott:
      default:
        scale = 1.06 * sd;
        break;
    }
    double h = scale * std::pow(n, -0.2);
    if (h <= 0.0) {
        // Degenerate sample: fall back to a tiny positive bandwidth
        // relative to the magnitude of the data.
        double mag = std::fabs(values.front());
        h = mag > 0.0 ? mag * 1e-6 : 1e-6;
    }
    return h;
}

Kde::Kde(std::vector<double> sample_in, double bandwidth)
    : sample(std::move(sample_in))
{
    if (sample.empty())
        throw std::invalid_argument("Kde requires a non-empty sample");
    h = bandwidth > 0.0
            ? bandwidth
            : kdeBandwidth(sample, BandwidthRule::Silverman);
    std::sort(sample.begin(), sample.end());
}

double
Kde::operator()(double x) const
{
    // Kernels beyond ~8 bandwidths contribute < 1e-14 of a kernel mass;
    // restrict to the relevant window using the sorted sample.
    const double cutoff = 8.0 * h;
    auto lo = std::lower_bound(sample.begin(), sample.end(), x - cutoff);
    auto hi = std::upper_bound(sample.begin(), sample.end(), x + cutoff);

    const double norm =
        1.0 / (static_cast<double>(sample.size()) * h *
               std::sqrt(2.0 * std::numbers::pi));
    double sum = 0.0;
    for (auto it = lo; it != hi; ++it) {
        double z = (x - *it) / h;
        sum += std::exp(-0.5 * z * z);
    }
    return norm * sum;
}

Kde::Grid
Kde::evaluateGrid(size_t points) const
{
    if (points < 2)
        throw std::invalid_argument("evaluateGrid requires >= 2 points");
    double lo = sample.front() - 3.0 * h;
    double hi = sample.back() + 3.0 * h;
    Grid grid;
    grid.x.resize(points);
    grid.density.resize(points);
    double step = (hi - lo) / static_cast<double>(points - 1);
    for (size_t i = 0; i < points; ++i) {
        grid.x[i] = lo + step * static_cast<double>(i);
        grid.density[i] = (*this)(grid.x[i]);
    }
    return grid;
}

std::vector<Mode>
findModes(const std::vector<double> &sample, double prominence,
          double bandwidth, size_t gridPoints)
{
    if (sample.empty())
        throw std::invalid_argument("findModes requires a non-empty sample");
    if (prominence <= 0.0 || prominence >= 1.0)
        throw std::invalid_argument("prominence must be in (0, 1)");

    // Degenerate sample: a single point mass.
    auto [mn, mx] = std::minmax_element(sample.begin(), sample.end());
    if (*mx - *mn <= 0.0)
        return {Mode{*mn, std::numeric_limits<double>::infinity(), 1.0}};

    Kde kde(sample, bandwidth);
    Kde::Grid grid = kde.evaluateGrid(gridPoints);
    size_t n = grid.x.size();

    // Find local maxima (plateau-aware).
    struct Peak
    {
        size_t index;
        double density;
    };
    std::vector<Peak> peaks;
    for (size_t i = 0; i < n; ++i) {
        double here = grid.density[i];
        // Walk plateaus: find the first strictly different neighbor on
        // each side.
        size_t l = i;
        while (l > 0 && grid.density[l - 1] == here)
            --l;
        size_t r = i;
        while (r + 1 < n && grid.density[r + 1] == here)
            ++r;
        bool left_ok = (l == 0) || grid.density[l - 1] < here;
        bool right_ok = (r == n - 1) || grid.density[r + 1] < here;
        if (left_ok && right_ok && here > 0.0) {
            peaks.push_back({(l + r) / 2, here});
            i = r; // skip the plateau
        }
    }
    if (peaks.empty())
        return {};

    double top = 0.0;
    for (const auto &peak : peaks)
        top = std::max(top, peak.density);

    // Merge adjacent peaks separated by shallow valleys: grid-level
    // noise wiggles on a smooth density (e.g. uniform data under a
    // small bandwidth) otherwise masquerade as extra modes. A valley
    // only separates two modes if the dip below the lower peak is at
    // least `prominence` of the global maximum (topographic
    // prominence).
    auto valleyDepth = [&](const Peak &a, const Peak &b) {
        double valley = std::numeric_limits<double>::infinity();
        for (size_t i = a.index; i <= b.index; ++i)
            valley = std::min(valley, grid.density[i]);
        return std::min(a.density, b.density) - valley;
    };
    bool merged = true;
    while (merged && peaks.size() > 1) {
        merged = false;
        for (size_t p = 0; p + 1 < peaks.size(); ++p) {
            if (valleyDepth(peaks[p], peaks[p + 1]) <
                prominence * top) {
                // Drop the lower of the two peaks.
                size_t victim =
                    peaks[p].density < peaks[p + 1].density ? p : p + 1;
                peaks.erase(peaks.begin() + static_cast<long>(victim));
                merged = true;
                break;
            }
        }
    }

    std::vector<Peak> kept;
    for (const auto &peak : peaks) {
        if (peak.density >= prominence * top)
            kept.push_back(peak);
    }
    if (kept.empty())
        return {};

    // Apportion mass at the valleys (density minima) between adjacent
    // kept peaks, then integrate the grid density per segment.
    std::vector<size_t> boundaries; // segment end indices (exclusive)
    for (size_t p = 0; p + 1 < kept.size(); ++p) {
        size_t lo_i = kept[p].index;
        size_t hi_i = kept[p + 1].index;
        size_t valley = lo_i;
        double best = std::numeric_limits<double>::infinity();
        for (size_t i = lo_i; i <= hi_i; ++i) {
            if (grid.density[i] < best) {
                best = grid.density[i];
                valley = i;
            }
        }
        boundaries.push_back(valley);
    }
    boundaries.push_back(n);

    // Integrate total density for normalization.
    double total = 0.0;
    for (double d : grid.density)
        total += d;

    std::vector<Mode> modes;
    size_t start = 0;
    for (size_t p = 0; p < kept.size(); ++p) {
        size_t end = boundaries[p];
        double mass = 0.0;
        for (size_t i = start; i < end; ++i)
            mass += grid.density[i];
        modes.push_back(Mode{grid.x[kept[p].index], kept[p].density,
                             total > 0.0 ? mass / total : 0.0});
        start = end;
    }
    return modes;
}

} // namespace stats
} // namespace sharp
