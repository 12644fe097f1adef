/**
 * @file
 * Gaussian kernel density estimation and KDE-based mode detection.
 *
 * Fig. 4 of the paper classifies 70% of Rodinia run-time distributions
 * as multimodal; the classifier and the modality stopping rule need a
 * robust mode counter, which we build from a KDE evaluated on a grid.
 */

#ifndef SHARP_STATS_KDE_HH
#define SHARP_STATS_KDE_HH

#include <cstddef>
#include <vector>

namespace sharp
{
namespace stats
{

/** KDE bandwidth selection rules. */
enum class BandwidthRule
{
    Silverman, ///< 0.9 * min(sd, IQR/1.34) * n^(-1/5)
    Scott,     ///< 1.06 * sd * n^(-1/5)
};

/** Compute the bandwidth for @p values under @p rule (non-empty). */
double kdeBandwidth(const std::vector<double> &values, BandwidthRule rule);

/**
 * A Gaussian kernel density estimate over a sample.
 */
class Kde
{
  public:
    /**
     * @param sample     the observations (non-empty; copied)
     * @param bandwidth  kernel bandwidth; pass <= 0 to use Silverman
     */
    explicit Kde(std::vector<double> sample, double bandwidth = 0.0);

    /** Density estimate at @p x. */
    double operator()(double x) const;

    /** The bandwidth in use. */
    double bandwidth() const { return h; }

    /**
     * Evaluate the density on a uniform grid of @p points spanning the
     * sample range extended by 3 bandwidths each side.
     * @return pair-like struct of grid x positions and densities.
     */
    struct Grid
    {
        std::vector<double> x;
        std::vector<double> density;
    };
    Grid evaluateGrid(size_t points = 256) const;

  private:
    std::vector<double> sample;
    double h;
};

/** A detected density mode. */
struct Mode
{
    /** Location of the local density maximum. */
    double location;
    /** Density value at the peak. */
    double density;
    /** Fraction of total probability mass attributed to this mode. */
    double mass;
};

/**
 * Detect modes of a sample as local maxima of its KDE on a grid.
 *
 * A local maximum qualifies as a mode if its peak density exceeds
 * @p prominence times the highest peak; this filters grid-level noise
 * wiggles. Mass is apportioned by the valleys between adjacent peaks.
 *
 * @param sample      the observations (non-empty)
 * @param prominence  relative peak-height threshold in (0, 1)
 * @param bandwidth   KDE bandwidth; <= 0 selects Silverman
 * @param gridPoints  resolution of the evaluation grid
 */
std::vector<Mode> findModes(const std::vector<double> &sample,
                            double prominence = 0.05,
                            double bandwidth = 0.0,
                            size_t gridPoints = 256);

} // namespace stats
} // namespace sharp

#endif // SHARP_STATS_KDE_HH
