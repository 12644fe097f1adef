/**
 * @file
 * The reference for stats::speedupOfMedians: the percentile bootstrap
 * as it ran before the counting walk, copying and sorting every
 * resample. The walk must return the same bits and leave the generator
 * in the same state.
 */

#ifndef SHARP_TESTS_SPEEDUP_SPEC_HH
#define SHARP_TESTS_SPEEDUP_SPEC_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "rng/xoshiro.hh"
#include "stats/descriptive.hh"
#include "stats/speedup.hh"

namespace sharp
{
namespace test
{

/** Median of a resample, sorted: the per-resample cost the walk removed. */
inline double
resampledMedianSpec(const std::vector<double> &sample,
                    std::vector<double> &scratch, rng::Xoshiro256 &gen)
{
    scratch.resize(sample.size());
    for (size_t i = 0; i < sample.size(); ++i)
        scratch[i] = sample[gen.nextBelow(sample.size())];
    std::sort(scratch.begin(), scratch.end());
    return stats::quantileSorted(scratch, 0.5);
}

/** speedupOfMedians with a sort per resample (valid samples only). */
inline stats::SpeedupEstimate
speedupOfMediansSpec(const std::vector<double> &baseline,
                     const std::vector<double> &candidate, double level,
                     size_t resamples, rng::Xoshiro256 &gen)
{
    stats::SpeedupEstimate estimate;
    estimate.baselineMedian = stats::median(baseline);
    estimate.candidateMedian = stats::median(candidate);
    estimate.speedup = estimate.baselineMedian / estimate.candidateMedian;

    std::vector<double> ratios;
    ratios.reserve(resamples);
    std::vector<double> base_scratch, cand_scratch;
    for (size_t r = 0; r < resamples; ++r) {
        double b = resampledMedianSpec(baseline, base_scratch, gen);
        double c = resampledMedianSpec(candidate, cand_scratch, gen);
        ratios.push_back(b / c);
    }
    std::sort(ratios.begin(), ratios.end());
    double alpha = 1.0 - level;
    estimate.ci = {stats::quantileSorted(ratios, alpha / 2.0),
                   stats::quantileSorted(ratios, 1.0 - alpha / 2.0), level};
    return estimate;
}

/** What sweepSpeedupOfMedians found. */
struct SpeedupSweep
{
    size_t cases = 0;
    /** Cases where a field or the generator's next output differs. */
    size_t mismatches = 0;
    std::string firstMismatch;
};

/**
 * An ascending sample of @p n positive values of one @p kind:
 * 0 continuous, 1 on a 1/8 grid (heavy ties), 2 all equal.
 */
inline std::vector<double>
sortedSample(size_t n, int kind, double scale, rng::Xoshiro256 &gen)
{
    std::vector<double> xs(n);
    for (double &x : xs) {
        if (kind == 0)
            x = scale * (0.5 + gen.nextDouble());
        else if (kind == 1)
            x = scale * (1.0 + static_cast<double>(gen.nextBelow(8)) / 8.0);
        else
            x = scale;
    }
    std::sort(xs.begin(), xs.end());
    return xs;
}

/**
 * stats::speedupOfMedians against the spec for each n in @p sizes:
 * baseline size n against candidate sizes n, n + 1 and n + 2, for
 * continuous, 1/8-grid and all-equal samples, @p resamples each.
 * Compares both medians, the speedup and the CI bounds bit for bit,
 * and the generators' next outputs afterwards.
 */
inline SpeedupSweep
sweepSpeedupOfMedians(const std::vector<size_t> &sizes, size_t resamples)
{
    SpeedupSweep sweep;
    auto same = [](double a, double b) {
        return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
    };
    for (size_t n : sizes) {
        for (size_t extra = 0; extra <= 2; ++extra) {
            for (int kind = 0; kind <= 2; ++kind) {
                rng::Xoshiro256 data(n * 16 + extra * 4 +
                                     static_cast<size_t>(kind));
                auto baseline = sortedSample(n, kind, 1.0, data);
                auto candidate = sortedSample(n + extra, kind, 1.1, data);
                double level = kind == 1 ? 0.9 : 0.95;

                rng::Xoshiro256 fast(n + extra), spec(n + extra);
                stats::SpeedupEstimate got = stats::speedupOfMedians(
                    baseline, candidate, level, resamples, fast);
                stats::SpeedupEstimate want = speedupOfMediansSpec(
                    baseline, candidate, level, resamples, spec);
                ++sweep.cases;
                if (same(got.baselineMedian, want.baselineMedian) &&
                    same(got.candidateMedian, want.candidateMedian) &&
                    same(got.speedup, want.speedup) &&
                    same(got.ci.lower, want.ci.lower) &&
                    same(got.ci.upper, want.ci.upper) &&
                    fast.next() == spec.next())
                    continue;
                if (sweep.mismatches++ == 0) {
                    sweep.firstMismatch =
                        "n=" + std::to_string(n) + "+" +
                        std::to_string(extra) + " kind=" +
                        std::to_string(kind) + ": got [" +
                        std::to_string(got.ci.lower) + ", " +
                        std::to_string(got.ci.upper) + "], spec [" +
                        std::to_string(want.ci.lower) + ", " +
                        std::to_string(want.ci.upper) + "]";
                }
            }
        }
    }
    return sweep;
}

} // namespace test
} // namespace sharp

#endif // SHARP_TESTS_SPEEDUP_SPEC_HH
