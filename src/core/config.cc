#include "core/config.hh"

#include <stdexcept>

#include "check/diagnostic.hh"

namespace sharp
{
namespace core
{

void
checkExperimentConfig(const json::Value &doc, check::CheckResult &out)
{
    if (!doc.isObject()) {
        out.error(doc, "wrong-type",
                  "experiment config must be a JSON object");
        return;
    }
    static const std::vector<std::string> known = {
        "rule", "params", "warmup", "min", "max", "checkInterval",
        "seed"};
    check::checkKnownFields(doc, known, "experiment config", out);
    if (const json::Value *legacy = doc.find("checkInterval"))
        out.report(check::Severity::Note, *legacy,
                   "obsolete-check-interval",
                   "'checkInterval' no longer exists and is ignored; the "
                   "stopping rule is evaluated after every round, as it "
                   "was in every recorded run");

    const json::Value *rule = doc.find("rule");
    if (rule && !rule->isString()) {
        out.error(*rule, "wrong-type", "'rule' must be a string");
        rule = nullptr;
    }

    bool paramsUsable = true;
    StoppingRuleFactory::Params params;
    if (const json::Value *doc_params = doc.find("params")) {
        if (!doc_params->isObject()) {
            out.error(*doc_params, "wrong-type",
                      "'params' must be an object");
            paramsUsable = false;
        } else {
            for (const auto &[key, value] : doc_params->members()) {
                if (!value.isNumber()) {
                    out.error(value, "wrong-type",
                              "rule parameter '" + key +
                                  "' must be a number");
                    paramsUsable = false;
                    continue;
                }
                params[key] = value.asNumber();
            }
        }
    }

    check::checkIntegerField(doc, "warmup", 0, out);
    const json::Value *min_value =
        check::checkIntegerField(doc, "min", 1, out);
    const json::Value *max_value =
        check::checkIntegerField(doc, "max", 1, out);
    if (const json::Value *seed = doc.find("seed")) {
        try {
            doc.getUint64("seed", 1);
        } catch (const json::TypeError &) {
            out.error(*seed, "wrong-type",
                      "'seed' must be a non-negative integer or a "
                      "decimal string",
                      "seeds >= 2^53 need the string form to "
                      "round-trip exactly");
        }
    }
    if (min_value && max_value &&
        max_value->asNumber() < min_value->asNumber()) {
        out.error(*max_value, "out-of-range",
                  "'max' (" + std::to_string(max_value->asLong()) +
                      ") is below 'min' (" +
                      std::to_string(min_value->asLong()) + ")");
    }

    // Instantiate the rule eagerly — the factory is the authority on
    // rule names and parameter ranges, so a config typo surfaces here
    // instead of mid-experiment.
    std::string rule_name =
        rule ? rule->asString() : ExperimentConfig().ruleName;
    const json::Value &rule_site = rule ? *rule : doc;
    try {
        if (paramsUsable)
            StoppingRuleFactory::instance().make(rule_name, params);
    } catch (const std::out_of_range &) {
        out.error(rule_site, "unknown-rule",
                  "unknown stopping rule '" + rule_name + "'",
                  check::suggestName(
                      rule_name,
                      StoppingRuleFactory::instance().names()));
    } catch (const std::exception &problem) {
        out.error(rule_site, "bad-rule-params",
                  "stopping rule '" + rule_name +
                      "' rejects its parameters: " + problem.what());
    }
}

ExperimentConfig
ExperimentConfig::fromJson(const json::Value &doc)
{
    check::CheckResult findings;
    checkExperimentConfig(doc, findings);
    check::throwIfErrors(std::move(findings));

    // The check above built the rule, so a bad name or parameter
    // surfaces at parse time, not mid-experiment.
    ExperimentConfig config;
    config.ruleName = doc.getString("rule", config.ruleName);
    if (const json::Value *params = doc.find("params")) {
        for (const auto &[key, value] : params->members())
            config.ruleParams[key] = value.asNumber();
    }
    config.options.warmupRuns = static_cast<size_t>(doc.getLong("warmup", 0));
    config.options.minSamples = static_cast<size_t>(doc.getLong(
        "min", static_cast<long>(config.options.minSamples)));
    config.options.maxSamples = static_cast<size_t>(doc.getLong(
        "max", static_cast<long>(config.options.maxSamples)));
    config.seed = doc.getUint64("seed", 1);
    return config;
}

json::Value
ExperimentConfig::toJson() const
{
    json::Value doc = json::Value::makeObject();
    doc.set("rule", ruleName);
    json::Value params = json::Value::makeObject();
    for (const auto &[key, value] : ruleParams)
        params.set(key, value);
    doc.set("params", std::move(params));
    doc.set("warmup", options.warmupRuns);
    doc.set("min", options.minSamples);
    doc.set("max", options.maxSamples);
    // As a decimal string: JSON numbers are doubles, which would
    // round seeds >= 2^53 (see Value::getUint64).
    doc.set("seed", std::to_string(seed));
    return doc;
}

std::unique_ptr<StoppingRule>
ExperimentConfig::makeRule() const
{
    return StoppingRuleFactory::instance().make(ruleName, ruleParams);
}

} // namespace core
} // namespace sharp
