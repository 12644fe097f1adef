#include "core/stopping/ks_rule.hh"

#include <algorithm>
#include <stdexcept>

#include "core/stats_cache.hh"
#include "util/string_utils.hh"

namespace sharp
{
namespace core
{

KsHalvesRule::KsHalvesRule(double threshold_in, size_t minRuns)
    : threshold(threshold_in), minRunsCfg(std::max<size_t>(minRuns, 4))
{
    if (!(threshold > 0.0 && threshold <= 1.0))
        throw std::invalid_argument(
            "KsHalvesRule requires threshold in (0, 1]");
    certifiedDetail = "KS(halves) >= " + util::formatDouble(threshold, 4) +
                      " by a certified lower bound";
}

std::string
KsHalvesRule::describe() const
{
    return "ks(threshold=" + util::formatDouble(threshold) +
           ", min=" + std::to_string(minRunsCfg) + ")";
}

StopDecision
KsHalvesRule::evaluate(const SampleSeries &series)
{
    if (series.size() < minRunsCfg) {
        return StopDecision::keepGoing(
            1.0, threshold, "warming up (" +
                                std::to_string(series.size()) + "/" +
                                std::to_string(minRunsCfg) + ")");
    }
    // A proven lower bound already at or above the threshold decides
    // keep-going without the O(n) walk.
    StatsCache &cache = series.stats();
    double bound = cache.ksHalvesLowerBound();
    if (bound >= threshold)
        return StopDecision::keepGoing(bound, threshold, certifiedDetail);
    double ks = cache.ksHalves();
    std::string detail = "KS(halves) = " + util::formatDouble(ks, 4) +
                         (ks < threshold ? " < " : " >= ") +
                         util::formatDouble(threshold, 4);
    if (ks < threshold)
        return StopDecision::stopNow(ks, threshold, detail);
    return StopDecision::keepGoing(ks, threshold, detail);
}

} // namespace core
} // namespace sharp
