#include "core/stopping/stopping_rule.hh"

#include <cmath>
#include <stdexcept>

#include "core/stopping/adaptive_rules.hh"
#include "core/stopping/ci_rules.hh"
#include "core/stopping/fixed_rule.hh"
#include "core/stopping/ks_rule.hh"
#include "core/stopping/meta_rule.hh"

namespace sharp
{
namespace core
{

namespace
{

using Params = StoppingRuleFactory::Params;

double
param(const Params &params, const std::string &key, double fallback)
{
    auto it = params.find(key);
    return it != params.end() ? it->second : fallback;
}

/** An integer parameter, range-checked like check::checkIntegerField. */
size_t
paramCount(const Params &params, const std::string &key, size_t fallback)
{
    auto it = params.find(key);
    if (it == params.end())
        return fallback;
    // The bound keeps the cast defined (NaN fails it too).
    double value = it->second;
    if (!(value >= 0.0 && value <= 9007199254740992.0 &&
          value == std::floor(value)))
        throw std::invalid_argument("parameter '" + key +
                                    "' must be an integer in [0, 2^53]");
    return static_cast<size_t>(value);
}

void
registerBuiltins(StoppingRuleFactory &factory)
{
    factory.registerRule("fixed", [](const Params &p) {
        return std::make_unique<FixedCountRule>(
            paramCount(p, "count", 100));
    });
    factory.registerRule("ci", [](const Params &p) {
        return std::make_unique<MeanCiRule>(
            param(p, "threshold", 0.05), param(p, "level", 0.95),
            paramCount(p, "min", 10));
    });
    factory.registerRule("normal-ci", [](const Params &p) {
        return std::make_unique<NormalMeanCiRule>(
            param(p, "threshold", 0.02), param(p, "level", 0.95),
            paramCount(p, "min", 10));
    });
    factory.registerRule("geomean-ci", [](const Params &p) {
        return std::make_unique<GeoMeanCiRule>(
            param(p, "threshold", 0.05), param(p, "level", 0.95),
            paramCount(p, "min", 10));
    });
    factory.registerRule("median-ci", [](const Params &p) {
        return std::make_unique<MedianCiRule>(
            param(p, "threshold", 0.05), param(p, "level", 0.95),
            paramCount(p, "min", 20));
    });
    factory.registerRule("ks", [](const Params &p) {
        return std::make_unique<KsHalvesRule>(param(p, "threshold", 0.1),
                                              paramCount(p, "min", 20));
    });
    factory.registerRule("constant", [](const Params &p) {
        return std::make_unique<ConstantRule>(param(p, "cv", 1e-9),
                                              paramCount(p, "min", 5));
    });
    factory.registerRule("uniform-range", [](const Params &p) {
        return std::make_unique<UniformRangeRule>(
            param(p, "growth", 0.01), param(p, "window", 0.25),
            paramCount(p, "min", 20));
    });
    factory.registerRule("autocorr-ess", [](const Params &p) {
        return std::make_unique<AutocorrEssRule>(
            param(p, "threshold", 0.05), param(p, "level", 0.95),
            param(p, "minEss", 25.0), paramCount(p, "min", 30));
    });
    factory.registerRule("modality", [](const Params &p) {
        return std::make_unique<ModalityRule>(
            param(p, "threshold", 0.1), param(p, "prominence", 0.15),
            paramCount(p, "min", 40));
    });
    factory.registerRule("tail-quantile", [](const Params &p) {
        return std::make_unique<TailQuantileRule>(
            param(p, "quantile", 0.95), param(p, "threshold", 0.1),
            param(p, "level", 0.95), paramCount(p, "min", 50));
    });
    factory.registerRule("meta", [](const Params &p) {
        MetaRule::Config config;
        config.reclassifyInterval =
            paramCount(p, "interval", config.reclassifyInterval);
        config.minRuns = paramCount(p, "min", config.minRuns);
        return std::make_unique<MetaRule>(config);
    });
}

} // anonymous namespace

StoppingRuleFactory &
StoppingRuleFactory::instance()
{
    static StoppingRuleFactory factory = [] {
        StoppingRuleFactory f;
        registerBuiltins(f);
        return f;
    }();
    return factory;
}

void
StoppingRuleFactory::registerRule(const std::string &name, Maker maker)
{
    makers[name] = std::move(maker);
}

std::unique_ptr<StoppingRule>
StoppingRuleFactory::make(const std::string &name,
                          const Params &params) const
{
    auto it = makers.find(name);
    if (it == makers.end())
        throw std::out_of_range("unknown stopping rule: " + name);
    return it->second(params);
}

std::vector<std::string>
StoppingRuleFactory::names() const
{
    std::vector<std::string> out;
    out.reserve(makers.size());
    for (const auto &entry : makers)
        out.push_back(entry.first);
    return out;
}

} // namespace core
} // namespace sharp
