/**
 * @file
 * The stopping-rule interface.
 *
 * "One of the key challenges in benchmarking is deciding on the
 * appropriate number of samples ... Choose too few, and the
 * measurements would be unreliable; choose too many, and precious
 * compute resources would be wasted." (§IV-c)
 *
 * SHARP's launcher evaluates a StoppingRule after every completed run
 * (or batch of concurrent runs) and stops the experiment when the rule
 * fires. Rules are stateless with respect to the data — they inspect
 * the full SampleSeries each time — but may cache expensive work keyed
 * on the series length.
 */

#ifndef SHARP_CORE_STOPPING_STOPPING_RULE_HH
#define SHARP_CORE_STOPPING_STOPPING_RULE_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/sample_series.hh"

namespace sharp
{
namespace core
{

/** The outcome of evaluating a stopping rule on the current series. */
struct StopDecision
{
    /** True when the experiment should stop now. */
    bool stop = false;
    /** Value of the rule's criterion (e.g. current KS of halves). */
    double criterion = 0.0;
    /** Threshold the criterion is compared against. */
    double threshold = 0.0;
    /** Human-readable explanation, recorded in the run metadata. */
    std::string reason;

    /** A "keep sampling" decision. */
    static StopDecision
    keepGoing(double criterion, double threshold, std::string reason)
    {
        return {false, criterion, threshold, std::move(reason)};
    }

    /** A "stop now" decision. */
    static StopDecision
    stopNow(double criterion, double threshold, std::string reason)
    {
        return {true, criterion, threshold, std::move(reason)};
    }
};

/**
 * Base class of all stopping rules.
 */
class StoppingRule
{
  public:
    virtual ~StoppingRule() = default;

    /** Registry name, e.g. "ks" or "ci". */
    virtual std::string name() const = 0;

    /** Human-readable description of the configured rule. */
    virtual std::string describe() const = 0;

    /**
     * Fewest samples before the rule can meaningfully fire; the
     * launcher will not consult the rule before this.
     */
    virtual size_t minSamples() const { return 2; }

    /** Evaluate against the series observed so far. */
    virtual StopDecision evaluate(const SampleSeries &series) = 0;

    /** Reset any internal state before a new experiment. */
    virtual void reset() {}
};

/**
 * Factory registry mapping rule names to constructors taking a
 * parameter map. Parameters use string keys with double values (counts
 * are rounded); unknown keys are rejected by the constructors.
 */
class StoppingRuleFactory
{
  public:
    using Params = std::map<std::string, double>;
    using Maker = std::function<std::unique_ptr<StoppingRule>(
        const Params &)>;

    /** The process-wide factory. */
    static StoppingRuleFactory &instance();

    /** Register a rule constructor under @p name. */
    void registerRule(const std::string &name, Maker maker);

    /**
     * Construct a rule. @throws std::out_of_range for unknown names,
     * std::invalid_argument for bad parameters.
     */
    std::unique_ptr<StoppingRule> make(const std::string &name,
                                       const Params &params = {}) const;

    /** Names of all registered rules, sorted. */
    std::vector<std::string> names() const;

  private:
    std::map<std::string, Maker> makers;
};

} // namespace core
} // namespace sharp

#endif // SHARP_CORE_STOPPING_STOPPING_RULE_HH
