/**
 * @file
 * Speedup estimation with bootstrap confidence intervals.
 *
 * Touati, Worms & Briais ("Towards a Statistical Methodology to
 * Evaluate Program Speedups", 2009; later "The Speedup-Test") argue
 * that a speedup reported without a confidence statement is not a
 * defensible claim: run-time distributions are skewed and
 * heavy-tailed, so SHARP reports the speedup of the *median* — robust
 * where the mean ratio is not — together with a two-sample percentile
 * bootstrap interval. `sharp compare` uses this as its point estimate
 * and confirmation test: a median shift only counts as a regression
 * when the whole interval lies below 1.
 *
 * The samples come in sorted, as baseline bundles store them, so no
 * resample is sorted: its median is read off per-index draw counts in
 * O(n), with the bits a sort would give.
 */

#ifndef SHARP_STATS_SPEEDUP_HH
#define SHARP_STATS_SPEEDUP_HH

#include <cstddef>
#include <vector>

#include "rng/xoshiro.hh"
#include "stats/ci.hh"

namespace sharp
{
namespace stats
{

/** A speedup point estimate with its bootstrap interval. */
struct SpeedupEstimate
{
    double baselineMedian = 0.0;
    double candidateMedian = 0.0;
    /**
     * baselineMedian / candidateMedian. For a smaller-is-better metric
     * (run time), > 1 means the candidate got faster, < 1 slower.
     */
    double speedup = 0.0;
    ConfidenceInterval ci{0.0, 0.0, 0.0};
};

/**
 * Speedup of the median with a two-sample percentile-bootstrap CI:
 * each resample draws both samples independently (with replacement)
 * and recomputes the ratio of medians; the interval is the
 * [alpha/2, 1 - alpha/2] percentile span of the resampled ratios.
 *
 * @param baseline   the reference sample: non-empty, ascending, all
 *                   values > 0
 * @param candidate  the new sample: non-empty, ascending, all
 *                   values > 0
 * @param level      confidence level in (0, 1)
 * @param resamples  bootstrap resamples (>= 100 recommended)
 * @param gen        entropy source (deterministic given its state)
 * @throws std::invalid_argument on an empty, unsorted or non-positive
 *         sample, a level outside (0, 1) or zero resamples.
 */
SpeedupEstimate speedupOfMedians(const std::vector<double> &baseline,
                                 const std::vector<double> &candidate,
                                 double level, size_t resamples,
                                 rng::Xoshiro256 &gen);

} // namespace stats
} // namespace sharp

#endif // SHARP_STATS_SPEEDUP_HH
