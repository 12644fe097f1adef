/**
 * @file
 * Confidence-interval-based stopping rules.
 *
 * MeanCiRule is the paper's "CI heuristic": stop "when the 95%
 * right-tailed confidence interval of all run-time measurements is
 * smaller than a threshold proportion of mean" (§V-C, thresholds
 * T1 = 0.05 and T2 = 0.01 in Table IV).
 *
 * The tailored variants target specific distribution families:
 * NormalMeanCiRule (two-sided t CI, for normal data),
 * GeoMeanCiRule (log-scale CI, for log-normal / log-uniform data),
 * and MedianCiRule (order-statistic CI, for skewed, logistic, or
 * heavy-tailed data whose mean is a poor or undefined target).
 *
 * MeanCiRule and NormalMeanCiRule first read the StatsCache's certified
 * narrowest interval: when its relative width is already at or above
 * the threshold they keep going without the O(n) deviation pass.
 */

#ifndef SHARP_CORE_STOPPING_CI_RULES_HH
#define SHARP_CORE_STOPPING_CI_RULES_HH

#include "core/stopping/stopping_rule.hh"

namespace sharp
{
namespace core
{

/**
 * The paper's CI rule: right-tailed CI width below a proportion of the
 * mean.
 */
class MeanCiRule : public StoppingRule
{
  public:
    /**
     * @param threshold  relative width threshold (paper: 0.05 or 0.01)
     * @param level      confidence level (paper: 0.95)
     * @param minRuns    samples before the rule may fire
     */
    explicit MeanCiRule(double threshold = 0.05, double level = 0.95,
                        size_t minRuns = 10);

    std::string name() const override { return "ci"; }
    std::string describe() const override;
    size_t minSamples() const override { return minRunsCfg; }
    StopDecision evaluate(const SampleSeries &series) override;

  private:
    double threshold;
    double level;
    size_t minRunsCfg;
    std::string certifiedDetail;
};

/** Two-sided t CI on the mean; tailored to normal data. */
class NormalMeanCiRule : public StoppingRule
{
  public:
    explicit NormalMeanCiRule(double threshold = 0.02,
                              double level = 0.95, size_t minRuns = 10);

    std::string name() const override { return "normal-ci"; }
    std::string describe() const override;
    size_t minSamples() const override { return minRunsCfg; }
    StopDecision evaluate(const SampleSeries &series) override;

  private:
    double threshold;
    double level;
    size_t minRunsCfg;
    std::string certifiedDetail;
};

/** CI on the geometric mean; tailored to log-normal-like data. */
class GeoMeanCiRule : public StoppingRule
{
  public:
    explicit GeoMeanCiRule(double threshold = 0.05, double level = 0.95,
                           size_t minRuns = 10);

    std::string name() const override { return "geomean-ci"; }
    std::string describe() const override;
    size_t minSamples() const override { return minRunsCfg; }
    StopDecision evaluate(const SampleSeries &series) override;

  private:
    double threshold;
    double level;
    size_t minRunsCfg;
};

/**
 * Order-statistic CI on the median; tailored to skewed, logistic, or
 * heavy-tailed data. Distribution-free, so it remains valid for
 * Cauchy-like samples with no finite mean.
 */
class MedianCiRule : public StoppingRule
{
  public:
    explicit MedianCiRule(double threshold = 0.05, double level = 0.95,
                          size_t minRuns = 20);

    std::string name() const override { return "median-ci"; }
    std::string describe() const override;
    size_t minSamples() const override { return minRunsCfg; }
    StopDecision evaluate(const SampleSeries &series) override;

  private:
    double threshold;
    double level;
    size_t minRunsCfg;
};

} // namespace core
} // namespace sharp

#endif // SHARP_CORE_STOPPING_CI_RULES_HH
