#include "core/stopping/ci_rules.hh"

#include <cmath>
#include <stdexcept>

#include "core/stats_cache.hh"
#include "stats/ci.hh"
#include "util/string_utils.hh"

namespace sharp
{
namespace core
{

namespace
{

void
checkCiParams(double threshold, double level, const char *who)
{
    if (!(threshold > 0.0))
        throw std::invalid_argument(std::string(who) +
                                    " requires threshold > 0");
    if (!(level > 0.0 && level < 1.0))
        throw std::invalid_argument(std::string(who) +
                                    " requires level in (0, 1)");
}

/**
 * The relative width a mean-CI rule thresholds, one expression for the
 * exact interval and for the certified narrowest one.
 */
double
relativeToMean(const stats::ConfidenceInterval &ci, double mean)
{
    return mean != 0.0 ? ci.width() / std::fabs(mean) : 0.0;
}

/**
 * The reason of a keep-going decided by a certified bound (built once
 * per rule: formatting it every round would cost more than the bound).
 */
std::string
certifiedReason(const std::string &what, double threshold)
{
    return what + " relative width >= " + util::formatDouble(threshold, 5) +
           " by a certified lower bound";
}

StopDecision
decideRelativeWidth(double rel_width, double threshold,
                    const std::string &what)
{
    std::string detail = what + " relative width " +
                         util::formatDouble(rel_width, 5) +
                         (rel_width < threshold ? " < " : " >= ") +
                         util::formatDouble(threshold, 5);
    if (rel_width < threshold)
        return StopDecision::stopNow(rel_width, threshold, detail);
    return StopDecision::keepGoing(rel_width, threshold, detail);
}

} // anonymous namespace

MeanCiRule::MeanCiRule(double threshold_in, double level_in,
                       size_t minRuns)
    : threshold(threshold_in), level(level_in),
      minRunsCfg(std::max<size_t>(minRuns, 2))
{
    checkCiParams(threshold, level, "MeanCiRule");
    certifiedDetail = certifiedReason("right-tailed mean CI", threshold);
}

std::string
MeanCiRule::describe() const
{
    return "ci(threshold=" + util::formatDouble(threshold) +
           ", level=" + util::formatDouble(level) +
           ", min=" + std::to_string(minRunsCfg) + ")";
}

StopDecision
MeanCiRule::evaluate(const SampleSeries &series)
{
    if (series.size() < minRunsCfg) {
        return StopDecision::keepGoing(
            0.0, threshold, "warming up (" +
                                std::to_string(series.size()) + "/" +
                                std::to_string(minRunsCfg) + ")");
    }
    // Rounding is monotone, so the relative width of the certified
    // narrowest interval is <= the exact one: at or above the
    // threshold it already decides keep-going, with no O(n) pass.
    StatsCache &cache = series.stats();
    if (auto narrow = cache.meanCiRightTailedLowerBound(level)) {
        double bound = relativeToMean(*narrow, series.mean());
        if (bound >= threshold)
            return StopDecision::keepGoing(bound, threshold,
                                           certifiedDetail);
    }
    auto ci = cache.meanCiRightTailed(level);
    double rel = relativeToMean(ci, series.mean());
    return decideRelativeWidth(rel, threshold, "right-tailed mean CI");
}

NormalMeanCiRule::NormalMeanCiRule(double threshold_in,
                                   double level_in, size_t minRuns)
    : threshold(threshold_in), level(level_in),
      minRunsCfg(std::max<size_t>(minRuns, 2))
{
    checkCiParams(threshold, level, "NormalMeanCiRule");
    certifiedDetail = certifiedReason("two-sided mean CI", threshold);
}

std::string
NormalMeanCiRule::describe() const
{
    return "normal-ci(threshold=" + util::formatDouble(threshold) +
           ", level=" + util::formatDouble(level) + ")";
}

StopDecision
NormalMeanCiRule::evaluate(const SampleSeries &series)
{
    if (series.size() < minRunsCfg) {
        return StopDecision::keepGoing(0.0, threshold, "warming up");
    }
    StatsCache &cache = series.stats();
    if (auto narrow = cache.meanCiLowerBound(level)) {
        double bound = narrow->relativeWidth(series.mean());
        if (bound >= threshold)
            return StopDecision::keepGoing(bound, threshold,
                                           certifiedDetail);
    }
    auto ci = cache.meanCi(level);
    double rel = ci.relativeWidth(series.mean());
    return decideRelativeWidth(rel, threshold, "two-sided mean CI");
}

GeoMeanCiRule::GeoMeanCiRule(double threshold_in, double level_in,
                             size_t minRuns)
    : threshold(threshold_in), level(level_in),
      minRunsCfg(std::max<size_t>(minRuns, 2))
{
    checkCiParams(threshold, level, "GeoMeanCiRule");
}

std::string
GeoMeanCiRule::describe() const
{
    return "geomean-ci(threshold=" + util::formatDouble(threshold) +
           ", level=" + util::formatDouble(level) + ")";
}

StopDecision
GeoMeanCiRule::evaluate(const SampleSeries &series)
{
    if (series.size() < minRunsCfg)
        return StopDecision::keepGoing(0.0, threshold, "warming up");
    if (series.min() <= 0.0) {
        // Data are not positive; fall back to the arithmetic-mean CI so
        // the rule degrades gracefully rather than failing.
        auto ci = series.stats().meanCi(level);
        return decideRelativeWidth(ci.relativeWidth(series.mean()),
                                   threshold,
                                   "mean CI (non-positive data)");
    }
    auto ci = stats::geometricMeanCi(series.values(), level);
    double center = 0.5 * (ci.lower + ci.upper);
    double rel = ci.relativeWidth(center);
    return decideRelativeWidth(rel, threshold, "geometric-mean CI");
}

MedianCiRule::MedianCiRule(double threshold_in, double level_in,
                           size_t minRuns)
    : threshold(threshold_in), level(level_in),
      minRunsCfg(std::max<size_t>(minRuns, 6))
{
    checkCiParams(threshold, level, "MedianCiRule");
}

std::string
MedianCiRule::describe() const
{
    return "median-ci(threshold=" + util::formatDouble(threshold) +
           ", level=" + util::formatDouble(level) + ")";
}

StopDecision
MedianCiRule::evaluate(const SampleSeries &series)
{
    if (series.size() < minRunsCfg)
        return StopDecision::keepGoing(0.0, threshold, "warming up");
    auto ci = series.stats().medianCi(level);
    double center = 0.5 * (ci.lower + ci.upper);
    double rel = ci.relativeWidth(center);
    return decideRelativeWidth(rel, threshold, "median CI");
}

} // namespace core
} // namespace sharp
