#include "core/stopping/adaptive_rules.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/stats_cache.hh"
#include "stats/autocorr.hh"
#include "stats/ci.hh"
#include "stats/kde.hh"
#include "stats/special.hh"
#include "util/string_utils.hh"

namespace sharp
{
namespace core
{

using util::formatDouble;

ConstantRule::ConstantRule(double cvTolerance_in, size_t minRuns)
    : cvTolerance(cvTolerance_in),
      minRunsCfg(std::max<size_t>(minRuns, 2))
{
    if (cvTolerance < 0.0)
        throw std::invalid_argument(
            "ConstantRule requires cvTolerance >= 0");
}

std::string
ConstantRule::describe() const
{
    return "constant(cv<=" + formatDouble(cvTolerance, 12) + ", min=" +
           std::to_string(minRunsCfg) + ")";
}

StopDecision
ConstantRule::evaluate(const SampleSeries &series)
{
    if (series.size() < minRunsCfg)
        return StopDecision::keepGoing(0.0, cvTolerance, "warming up");
    double m = series.mean();
    double cv = m != 0.0 ? series.stddev() / std::fabs(m)
                         : series.stddev();
    std::string detail = "CV = " + formatDouble(cv, 12);
    if (cv <= cvTolerance)
        return StopDecision::stopNow(cv, cvTolerance,
                                     detail + " (constant)");
    return StopDecision::keepGoing(cv, cvTolerance,
                                   detail + " (not constant)");
}

UniformRangeRule::UniformRangeRule(double growthTolerance_in,
                                   double windowFraction_in,
                                   size_t minRuns)
    : growthTolerance(growthTolerance_in),
      windowFraction(windowFraction_in),
      minRunsCfg(std::max<size_t>(minRuns, 8))
{
    if (growthTolerance < 0.0)
        throw std::invalid_argument(
            "UniformRangeRule requires growthTolerance >= 0");
    if (!(windowFraction > 0.0 && windowFraction < 1.0))
        throw std::invalid_argument(
            "UniformRangeRule requires windowFraction in (0, 1)");
}

std::string
UniformRangeRule::describe() const
{
    return "uniform-range(growth<=" + formatDouble(growthTolerance) +
           ", window=" + formatDouble(windowFraction) + ")";
}

StopDecision
UniformRangeRule::evaluate(const SampleSeries &series)
{
    if (series.size() < minRunsCfg)
        return StopDecision::keepGoing(1.0, growthTolerance,
                                       "warming up");

    size_t n = series.size();
    size_t window = std::max<size_t>(
        1, static_cast<size_t>(windowFraction * static_cast<double>(n)));
    size_t old_n = n - window;

    auto [old_min, old_max] = series.stats().prefixRange(old_n);
    double full_range = series.max() - series.min();
    double old_range = old_max - old_min;
    double growth = full_range > 0.0
                        ? (full_range - old_range) / full_range
                        : 0.0;
    std::string detail = "range growth " + formatDouble(growth, 5) +
                         " over last " + std::to_string(window) +
                         " samples";
    if (growth <= growthTolerance)
        return StopDecision::stopNow(growth, growthTolerance, detail);
    return StopDecision::keepGoing(growth, growthTolerance, detail);
}

AutocorrEssRule::AutocorrEssRule(double threshold_in, double level_in,
                                 double minEss_in, size_t minRuns)
    : threshold(threshold_in), level(level_in), minEss(minEss_in),
      minRunsCfg(std::max<size_t>(minRuns, 8))
{
    if (!(threshold > 0.0))
        throw std::invalid_argument(
            "AutocorrEssRule requires threshold > 0");
    if (!(level > 0.0 && level < 1.0))
        throw std::invalid_argument(
            "AutocorrEssRule requires level in (0, 1)");
    if (minEss < 2.0)
        throw std::invalid_argument("AutocorrEssRule requires minEss >= 2");
}

std::string
AutocorrEssRule::describe() const
{
    return "autocorr-ess(threshold=" + formatDouble(threshold) +
           ", minEss=" + formatDouble(minEss) + ")";
}

StopDecision
AutocorrEssRule::evaluate(const SampleSeries &series)
{
    if (series.size() < minRunsCfg)
        return StopDecision::keepGoing(1.0, threshold, "warming up");

    double ess = stats::effectiveSampleSize(series.values());
    if (ess < minEss) {
        return StopDecision::keepGoing(
            1.0, threshold, "effective sample size " +
                                formatDouble(ess, 1) + " < " +
                                formatDouble(minEss, 1));
    }
    // t CI on the mean with n replaced by the effective sample size.
    double se = series.stddev() / std::sqrt(ess);
    double t = stats::studentTQuantile(0.5 + level / 2.0, ess - 1.0);
    double width = 2.0 * t * se;
    double rel = series.mean() != 0.0
                     ? width / std::fabs(series.mean())
                     : 0.0;
    std::string detail = "ESS-adjusted CI relative width " +
                         formatDouble(rel, 5) + " (ESS " +
                         formatDouble(ess, 1) + ")";
    if (rel < threshold)
        return StopDecision::stopNow(rel, threshold, detail);
    return StopDecision::keepGoing(rel, threshold, detail);
}

ModalityRule::ModalityRule(double ksThreshold_in, double prominence_in,
                           size_t minRuns)
    : ksThreshold(ksThreshold_in), prominence(prominence_in),
      minRunsCfg(std::max<size_t>(minRuns, 16))
{
    if (!(ksThreshold > 0.0 && ksThreshold <= 1.0))
        throw std::invalid_argument(
            "ModalityRule requires ksThreshold in (0, 1]");
    if (!(prominence > 0.0 && prominence < 1.0))
        throw std::invalid_argument(
            "ModalityRule requires prominence in (0, 1)");
}

std::string
ModalityRule::describe() const
{
    return "modality(ks=" + formatDouble(ksThreshold) +
           ", prominence=" + formatDouble(prominence) + ")";
}

StopDecision
ModalityRule::evaluate(const SampleSeries &series)
{
    if (series.size() < minRunsCfg)
        return StopDecision::keepGoing(1.0, ksThreshold, "warming up");

    // A stop needs both the KS test and equal mode counts. KS(halves)
    // is a cached read; the two KDEs are the rule's whole cost, so they
    // only run once KS passes.
    double ks = series.stats().ksHalves();
    if (!(ks < ksThreshold)) {
        return StopDecision::keepGoing(
            ks, ksThreshold,
            "KS(halves) " + formatDouble(ks, 4) + " (shape still changing)");
    }

    // findModes must see the halves in *arrival* order: the KDE picks
    // its bandwidth from the sample before sorting internally, so
    // feeding it a pre-sorted view would change the estimate.
    auto first = series.firstHalf();
    size_t modes_half = stats::findModes(first, prominence).size();
    size_t modes_full = stats::findModes(series.values(),
                                         prominence).size();

    std::string detail = "modes " + std::to_string(modes_half) + "->" +
                         std::to_string(modes_full) + ", KS(halves) " +
                         formatDouble(ks, 4);
    if (modes_half == modes_full)
        return StopDecision::stopNow(ks, ksThreshold,
                                     detail + " (shape stable)");
    return StopDecision::keepGoing(ks, ksThreshold,
                                   detail + " (shape still changing)");
}

TailQuantileRule::TailQuantileRule(double quantile, double threshold_in,
                                   double level_in, size_t minRuns)
    : quantileP(quantile), threshold(threshold_in), level(level_in),
      minRunsCfg(std::max<size_t>(minRuns, 10))
{
    if (!(quantile > 0.0 && quantile < 1.0))
        throw std::invalid_argument(
            "TailQuantileRule requires quantile in (0, 1)");
    if (!(threshold > 0.0))
        throw std::invalid_argument(
            "TailQuantileRule requires threshold > 0");
    if (!(level > 0.0 && level < 1.0))
        throw std::invalid_argument(
            "TailQuantileRule requires level in (0, 1)");
}

std::string
TailQuantileRule::describe() const
{
    return "tail-quantile(p=" + formatDouble(quantileP) +
           ", threshold=" + formatDouble(threshold) + ")";
}

StopDecision
TailQuantileRule::evaluate(const SampleSeries &series)
{
    if (series.size() < minRunsCfg)
        return StopDecision::keepGoing(1.0, threshold, "warming up");

    auto ci = series.stats().quantileCi(quantileP, level);
    double center = 0.5 * (ci.lower + ci.upper);
    double rel = ci.relativeWidth(center);
    std::string detail = "p" + formatDouble(quantileP * 100) +
                         " CI relative width " + formatDouble(rel, 5);
    if (rel < threshold)
        return StopDecision::stopNow(rel, threshold, detail);
    return StopDecision::keepGoing(rel, threshold, detail);
}

} // namespace core
} // namespace sharp
