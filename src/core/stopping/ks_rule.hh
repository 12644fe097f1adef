/**
 * @file
 * The KS self-similarity stopping rule — SHARP's headline generic rule.
 *
 * "The KS-based stopping rule calculates the KS between the 1st and 2nd
 * half of the runs and stops when it drops below the given threshold."
 * (§V-C; Table IV uses T = 0.1.) It requires no prior knowledge of the
 * distribution: when the two halves look alike, additional runs have
 * stopped adding information about the distribution's shape.
 *
 * Past the StatsCache cutover most evaluations never walk the halves:
 * while the cache's certified lower bound on the statistic stays at or
 * above the threshold, the rule keeps going on that proof alone, and
 * the decision's criterion is the bound.
 */

#ifndef SHARP_CORE_STOPPING_KS_RULE_HH
#define SHARP_CORE_STOPPING_KS_RULE_HH

#include "core/stopping/stopping_rule.hh"

namespace sharp
{
namespace core
{

/**
 * Stop when KS(first half, second half) < threshold.
 */
class KsHalvesRule : public StoppingRule
{
  public:
    /**
     * @param threshold KS threshold (paper: 0.1)
     * @param minRuns   samples before the rule may fire (each half then
     *                  has at least minRuns/2 points)
     */
    explicit KsHalvesRule(double threshold = 0.1, size_t minRuns = 20);

    std::string name() const override { return "ks"; }
    std::string describe() const override;
    size_t minSamples() const override { return minRunsCfg; }
    StopDecision evaluate(const SampleSeries &series) override;

    /** The configured threshold. */
    double ksThreshold() const { return threshold; }

  private:
    double threshold;
    size_t minRunsCfg;
    /** The reason of a keep-going decided by the certified bound. */
    std::string certifiedDetail;
};

} // namespace core
} // namespace sharp

#endif // SHARP_CORE_STOPPING_KS_RULE_HH
