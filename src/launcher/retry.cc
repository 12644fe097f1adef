#include "launcher/retry.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "check/diagnostic.hh"
#include "rng/xoshiro.hh"
#include "util/string_utils.hh"

namespace sharp
{
namespace launcher
{

void
checkRetryPolicy(const json::Value &doc, check::CheckResult &out)
{
    if (!doc.isObject()) {
        out.error(doc, "wrong-type",
                  "retry policy must be a JSON object");
        return;
    }
    static const std::vector<std::string> known = {
        "attempts", "backoff",     "multiplier", "max_backoff",
        "jitter",   "jitter_seed", "kinds"};
    check::checkKnownFields(doc, known, "retry policy", out);

    auto numberAtLeast = [&](const char *key, double minimum) {
        const json::Value *value = doc.find(key);
        if (!value)
            return;
        if (!value->isNumber()) {
            out.error(*value, "wrong-type",
                      "'" + std::string(key) + "' must be a number");
        } else if (value->asNumber() < minimum) {
            out.error(*value, "out-of-range",
                      "'" + std::string(key) + "' must be >= " +
                          util::formatDouble(minimum, 0));
        }
    };
    check::checkIntegerField(doc, "attempts", 1, out);
    numberAtLeast("backoff", 0.0);
    numberAtLeast("multiplier", 1.0);
    numberAtLeast("max_backoff", 0.0);
    if (const json::Value *jitter = doc.find("jitter")) {
        if (!jitter->isNumber() || jitter->asNumber() < 0.0 ||
            jitter->asNumber() > 1.0) {
            out.error(*jitter, "out-of-range",
                      "'jitter' must be a number in [0, 1]");
        }
    }
    if (const json::Value *seed = doc.find("jitter_seed")) {
        try {
            doc.getUint64("jitter_seed", 1);
        } catch (const json::TypeError &) {
            out.error(*seed, "wrong-type",
                      "'jitter_seed' must be a non-negative integer "
                      "or a decimal string");
        }
    }
    if (const json::Value *kinds = doc.find("kinds")) {
        if (!kinds->isArray()) {
            out.error(*kinds, "wrong-type",
                      "retry 'kinds' must be an array");
        } else {
            std::vector<std::string> names;
            for (record::FailureKind kind : record::allFailureKinds())
                names.push_back(record::failureKindName(kind));
            for (const auto &kind : kinds->asArray()) {
                if (!kind.isString()) {
                    out.error(kind, "wrong-type",
                              "failure kinds must be strings");
                    continue;
                }
                try {
                    record::failureKindFromName(kind.asString());
                } catch (const std::invalid_argument &) {
                    out.error(kind, "unknown-name",
                              "unknown failure kind '" +
                                  kind.asString() + "'",
                              check::suggestName(kind.asString(),
                                                 names));
                }
            }
        }
    }
}

bool
RetryPolicy::shouldRetry(record::FailureKind kind) const
{
    if (kind == record::FailureKind::None)
        return false;
    if (retryableKinds.empty())
        return true;
    return std::find(retryableKinds.begin(), retryableKinds.end(),
                     kind) != retryableKinds.end();
}

double
RetryPolicy::backoffSeconds(size_t retryIndex, uint64_t sequence) const
{
    if (backoffBaseSeconds <= 0.0)
        return 0.0;
    double delay = backoffBaseSeconds *
                   std::pow(backoffMultiplier,
                            static_cast<double>(retryIndex));
    delay = std::min(delay, maxBackoffSeconds);
    if (jitterFraction > 0.0) {
        // One SplitMix64 output per (sequence, retryIndex) pair; a
        // pure function of the seed so reproductions wait identically.
        rng::SplitMix64 mix(jitterSeed ^
                            (sequence * 0x9E3779B97F4A7C15ULL +
                             retryIndex));
        double unit = static_cast<double>(mix.next() >> 11) *
                      0x1.0p-53; // [0, 1)
        delay *= 1.0 + jitterFraction * (2.0 * unit - 1.0);
    }
    return std::max(delay, 0.0);
}

void
RetryPolicy::validate() const
{
    if (maxAttempts < 1)
        throw std::invalid_argument("retry attempts must be >= 1");
    if (backoffBaseSeconds < 0.0 || maxBackoffSeconds < 0.0)
        throw std::invalid_argument("retry backoff must be >= 0");
    if (backoffMultiplier < 1.0)
        throw std::invalid_argument("retry multiplier must be >= 1");
    if (jitterFraction < 0.0 || jitterFraction > 1.0)
        throw std::invalid_argument("retry jitter must be in [0, 1]");
}

RetryPolicy
RetryPolicy::fromJson(const json::Value &doc)
{
    check::CheckResult findings;
    checkRetryPolicy(doc, findings);
    check::throwIfErrors(std::move(findings));

    RetryPolicy policy;
    policy.maxAttempts =
        static_cast<size_t>(doc.getLong("attempts", 1));
    policy.backoffBaseSeconds =
        doc.getNumber("backoff", policy.backoffBaseSeconds);
    policy.backoffMultiplier =
        doc.getNumber("multiplier", policy.backoffMultiplier);
    policy.maxBackoffSeconds =
        doc.getNumber("max_backoff", policy.maxBackoffSeconds);
    policy.jitterFraction =
        doc.getNumber("jitter", policy.jitterFraction);
    policy.jitterSeed = doc.getUint64("jitter_seed", policy.jitterSeed);
    if (const json::Value *kinds = doc.find("kinds")) {
        if (!kinds->isArray())
            throw std::invalid_argument(
                "retry 'kinds' must be an array");
        for (const auto &kind : kinds->asArray())
            policy.retryableKinds.push_back(
                record::failureKindFromName(kind.asString()));
    }
    policy.validate();
    return policy;
}

json::Value
RetryPolicy::toJson() const
{
    json::Value doc = json::Value::makeObject();
    doc.set("attempts", maxAttempts);
    doc.set("backoff", backoffBaseSeconds);
    doc.set("multiplier", backoffMultiplier);
    doc.set("max_backoff", maxBackoffSeconds);
    doc.set("jitter", jitterFraction);
    // As a decimal string: JSON numbers are doubles, which would
    // round seeds >= 2^53 and replay a different jitter schedule.
    doc.set("jitter_seed", std::to_string(jitterSeed));
    if (!retryableKinds.empty()) {
        json::Value kinds = json::Value::makeArray();
        for (record::FailureKind kind : retryableKinds)
            kinds.append(record::failureKindName(kind));
        doc.set("kinds", std::move(kinds));
    }
    return doc;
}

std::string
RetryPolicy::describe() const
{
    if (!enabled())
        return "disabled";
    std::string out = "attempts=" + std::to_string(maxAttempts) +
                      " backoff=" +
                      util::formatDouble(backoffBaseSeconds, 3) + "s x" +
                      util::formatDouble(backoffMultiplier, 2);
    if (jitterFraction > 0.0)
        out += " jitter=" + util::formatDouble(jitterFraction, 2);
    if (!retryableKinds.empty()) {
        std::vector<std::string> names;
        for (record::FailureKind kind : retryableKinds)
            names.push_back(record::failureKindName(kind));
        out += " kinds=" + util::join(names, ",");
    }
    return out;
}

} // namespace launcher
} // namespace sharp
