/**
 * @file
 * JSON-backed experiment configuration.
 *
 * SHARP is driven by small JSON documents ("simply by adding a JSON or
 * YAML configuration file", §IV-a). This module maps the stopping /
 * sampling portion of such a document onto ExperimentOptions and a
 * StoppingRule, and can serialize a configuration back to JSON for the
 * metadata record — the round trip that lets SHARP "parse it to
 * recreate the same parameters for a reproduction run".
 */

#ifndef SHARP_CORE_CONFIG_HH
#define SHARP_CORE_CONFIG_HH

#include <cstddef>
#include <map>
#include <memory>
#include <string>

#include "core/stopping/stopping_rule.hh"
#include "json/value.hh"

namespace sharp
{
namespace check
{
class CheckResult;
} // namespace check

namespace core
{

/** Sampling bounds of one experiment (see launcher::LaunchOptions). */
struct ExperimentOptions
{
    /** Discard this many initial runs (cold starts, cache warmup). */
    size_t warmupRuns = 0;
    /** Never stop before this many retained samples. */
    size_t minSamples = 2;
    /** Hard cap on retained samples (safety net; must be >= min). */
    size_t maxSamples = 10000;
};

/**
 * Declarative experiment configuration.
 *
 * JSON shape:
 * {
 *   "rule": "ks",
 *   "params": {"threshold": 0.1, "min": 20},
 *   "warmup": 3, "min": 20, "max": 1000,
 *   "seed": 42
 * }
 *
 * The stopping rule is evaluated after every round. A legacy
 * "checkInterval" key still loads and is ignored.
 */
struct ExperimentConfig
{
    /** Stopping-rule registry name. */
    std::string ruleName = "ks";
    /** Rule parameters (see StoppingRuleFactory). */
    StoppingRuleFactory::Params ruleParams;
    /** Sampling-loop options. */
    ExperimentOptions options;
    /** RNG seed for simulated sources. */
    uint64_t seed = 1;

    /** Parse from a JSON object. @throws std::invalid_argument. */
    static ExperimentConfig fromJson(const json::Value &doc);

    /** Serialize to a JSON object (round-trips through fromJson). */
    json::Value toJson() const;

    /** Instantiate the configured stopping rule. */
    std::unique_ptr<StoppingRule> makeRule() const;
};

/**
 * Static analysis of an experiment-config document: located
 * diagnostics for structural problems, unknown stopping rules (with a
 * did-you-mean hint), and rule parameters the factory rejects.
 * Never throws; ExperimentConfig::fromJson runs this first and throws
 * check::CheckFailure on errors.
 */
void checkExperimentConfig(const json::Value &doc,
                           check::CheckResult &out);

} // namespace core
} // namespace sharp

#endif // SHARP_CORE_CONFIG_HH
