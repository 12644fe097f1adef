#include "stats/speedup.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/descriptive.hh"

namespace sharp
{
namespace stats
{

namespace
{

void
checkSample(const std::vector<double> &sample, const char *which)
{
    if (sample.empty()) {
        throw std::invalid_argument(std::string("speedupOfMedians: ") +
                                    which + " sample is empty");
    }
    for (size_t i = 0; i < sample.size(); ++i) {
        if (!(sample[i] > 0.0)) {
            throw std::invalid_argument(
                std::string("speedupOfMedians: ") + which +
                " sample has a non-positive value; speedup ratios "
                "need a positive metric");
        }
        if (i > 0 && sample[i] < sample[i - 1]) {
            throw std::invalid_argument(
                std::string("speedupOfMedians: ") + which +
                " sample is not in ascending order");
        }
    }
}

/**
 * Median of a resample drawn with replacement from the ascending
 * @p sorted, without sorting it. A resample's k-th smallest value is
 * the value at its k-th smallest drawn index, ties included, so
 * counting the draws per index and walking the counts to the two
 * order statistics quantileSorted(·, 0.5) interpolates gives its bits
 * in O(n). @p counts is scratch reused across resamples.
 */
double
resampledMedian(const std::vector<double> &sorted,
                std::vector<size_t> &counts, rng::Xoshiro256 &gen)
{
    size_t n = sorted.size();
    counts.assign(n, 0);
    // Drawing from a local copy keeps the generator state in registers:
    // the count stores could alias the caller's generator.
    rng::Xoshiro256 local = gen;
    for (size_t i = 0; i < n; ++i)
        ++counts[local.nextBelow(n)];
    gen = local;
    if (n == 1)
        return sorted[0];
    double h = (static_cast<double>(n) - 1.0) * 0.5;
    size_t lo = static_cast<size_t>(std::floor(h));
    size_t hi = std::min(lo + 1, n - 1);
    double frac = h - static_cast<double>(lo);
    // below = draws at indices before i.
    size_t i = 0, below = 0;
    auto walkTo = [&](size_t k) {
        while (below + counts[i] <= k)
            below += counts[i++];
        return sorted[i];
    };
    double at_lo = walkTo(lo);
    double at_hi = walkTo(hi);
    return at_lo + frac * (at_hi - at_lo);
}

} // anonymous namespace

SpeedupEstimate
speedupOfMedians(const std::vector<double> &baseline,
                 const std::vector<double> &candidate, double level,
                 size_t resamples, rng::Xoshiro256 &gen)
{
    if (!(level > 0.0 && level < 1.0))
        throw std::invalid_argument("confidence level must be in (0, 1)");
    if (resamples == 0)
        throw std::invalid_argument("bootstrap requires resamples >= 1");
    checkSample(baseline, "baseline");
    checkSample(candidate, "candidate");

    SpeedupEstimate estimate;
    estimate.baselineMedian = quantileSorted(baseline, 0.5);
    estimate.candidateMedian = quantileSorted(candidate, 0.5);
    estimate.speedup = estimate.baselineMedian / estimate.candidateMedian;

    std::vector<double> ratios;
    ratios.reserve(resamples);
    std::vector<size_t> base_counts, cand_counts;
    for (size_t r = 0; r < resamples; ++r) {
        double b = resampledMedian(baseline, base_counts, gen);
        double c = resampledMedian(candidate, cand_counts, gen);
        ratios.push_back(b / c);
    }
    std::sort(ratios.begin(), ratios.end());
    double alpha = 1.0 - level;
    estimate.ci = {quantileSorted(ratios, alpha / 2.0),
                   quantileSorted(ratios, 1.0 - alpha / 2.0), level};
    return estimate;
}

} // namespace stats
} // namespace sharp
