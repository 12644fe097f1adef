#include "launcher/fault_backend.hh"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "check/diagnostic.hh"
#include "util/string_utils.hh"

namespace sharp
{
namespace launcher
{

namespace
{

const char *const faultProbabilityKeys[] = {
    "crash",   "spawn_error", "hang", "hang_recover",
    "corrupt", "flaky_exit",  "slow"};

} // anonymous namespace

void
checkFaultSpec(const json::Value &doc, check::CheckResult &out)
{
    if (!doc.isObject()) {
        out.error(doc, "wrong-type", "fault spec must be a JSON object");
        return;
    }
    static const std::vector<std::string> known = {
        "crash",       "spawn_error",
        "hang",        "hang_recover",
        "hang_recover_seconds", "incarnation",
        "corrupt",     "flaky_exit",
        "slow",        "slow_factor",
        "slow_metric", "seed"};
    check::checkKnownFields(doc, known, "fault spec", out);

    double total = 0.0;
    bool bandsUsable = true;
    for (const char *key : faultProbabilityKeys) {
        const json::Value *band = doc.find(key);
        if (!band)
            continue;
        if (!band->isNumber()) {
            out.error(*band, "wrong-type",
                      "fault probability '" + std::string(key) +
                          "' must be a number");
            bandsUsable = false;
            continue;
        }
        double p = band->asNumber();
        if (p < 0.0 || p > 1.0) {
            out.error(*band, "out-of-range",
                      "fault probability '" + std::string(key) +
                          "' must be in [0, 1]");
            bandsUsable = false;
            continue;
        }
        total += p;
    }
    if (bandsUsable && total > 1.0) {
        out.error(doc, "out-of-range",
                  "fault probabilities sum to " +
                      util::formatDouble(total, 3) +
                      "; the bands must sum to <= 1");
    }

    if (const json::Value *factor = doc.find("slow_factor")) {
        if (!factor->isNumber())
            out.error(*factor, "wrong-type",
                      "'slow_factor' must be a number");
        else if (factor->asNumber() <= 0.0)
            out.error(*factor, "out-of-range",
                      "'slow_factor' must be > 0");
    }
    if (const json::Value *stall = doc.find("hang_recover_seconds")) {
        if (!stall->isNumber())
            out.error(*stall, "wrong-type",
                      "'hang_recover_seconds' must be a number");
        else if (stall->asNumber() <= 0.0)
            out.error(*stall, "out-of-range",
                      "'hang_recover_seconds' must be > 0");
    }
    check::checkIntegerField(doc, "incarnation", 0, out);
    if (const json::Value *metric = doc.find("slow_metric")) {
        if (!metric->isString() || metric->asString().empty())
            out.error(*metric, "wrong-type",
                      "'slow_metric' must be a non-empty string");
    }
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
}

double
FaultSpec::totalProbability() const
{
    return crashProbability + spawnErrorProbability + hangProbability +
           hangRecoverProbability + corruptProbability +
           flakyExitProbability + slowProbability;
}

void
FaultSpec::validate() const
{
    for (double p : {crashProbability, spawnErrorProbability,
                     hangProbability, hangRecoverProbability,
                     corruptProbability, flakyExitProbability,
                     slowProbability}) {
        if (p < 0.0 || p > 1.0)
            throw std::invalid_argument(
                "fault probabilities must be in [0, 1]");
    }
    if (totalProbability() > 1.0)
        throw std::invalid_argument(
            "fault probabilities must sum to <= 1");
    if (slowFactor <= 0.0)
        throw std::invalid_argument("slow_factor must be > 0");
    if (hangRecoverSeconds <= 0.0)
        throw std::invalid_argument("hang_recover_seconds must be > 0");
}

FaultSpec
FaultSpec::fromJson(const json::Value &doc)
{
    check::CheckResult findings;
    checkFaultSpec(doc, findings);
    check::throwIfErrors(std::move(findings));

    FaultSpec spec;
    spec.crashProbability = doc.getNumber("crash", 0.0);
    spec.spawnErrorProbability = doc.getNumber("spawn_error", 0.0);
    spec.hangProbability = doc.getNumber("hang", 0.0);
    spec.hangRecoverProbability = doc.getNumber("hang_recover", 0.0);
    spec.hangRecoverSeconds =
        doc.getNumber("hang_recover_seconds", spec.hangRecoverSeconds);
    spec.incarnation = doc.getUint64("incarnation", 0);
    spec.corruptProbability = doc.getNumber("corrupt", 0.0);
    spec.flakyExitProbability = doc.getNumber("flaky_exit", 0.0);
    spec.slowProbability = doc.getNumber("slow", 0.0);
    spec.slowFactor = doc.getNumber("slow_factor", spec.slowFactor);
    spec.slowMetric = doc.getString("slow_metric", spec.slowMetric);
    spec.seed = doc.getUint64("seed", 1);
    return spec;
}

json::Value
FaultSpec::toJson() const
{
    json::Value doc = json::Value::makeObject();
    doc.set("crash", crashProbability);
    doc.set("spawn_error", spawnErrorProbability);
    doc.set("hang", hangProbability);
    doc.set("hang_recover", hangRecoverProbability);
    doc.set("hang_recover_seconds", hangRecoverSeconds);
    doc.set("incarnation", static_cast<double>(incarnation));
    doc.set("corrupt", corruptProbability);
    doc.set("flaky_exit", flakyExitProbability);
    doc.set("slow", slowProbability);
    doc.set("slow_factor", slowFactor);
    doc.set("slow_metric", slowMetric);
    // As a decimal string: JSON numbers are doubles, which would
    // round seeds >= 2^53 and replay a different fault schedule.
    doc.set("seed", std::to_string(seed));
    return doc;
}

double
hangRecoverStallSeconds(const FaultSpec &spec, size_t index)
{
    // Hashed from (seed, index) rather than drawn from the band
    // schedule, so the stall length never consumes a schedule draw
    // and enabling hang_recover cannot shift which bands fire.
    rng::SplitMix64 mix(spec.seed ^
                        (0x9E3779B97F4A7C15ULL *
                         (static_cast<uint64_t>(index) + 1)));
    double fraction =
        static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
    double stall = spec.hangRecoverSeconds * (0.9 + 0.2 * fraction);
    int epoch = spec.incarnation > 1024
                    ? 1024
                    : static_cast<int>(spec.incarnation);
    return std::ldexp(stall, -epoch);
}

FaultInjectingBackend::FaultInjectingBackend(
    std::shared_ptr<Backend> inner_in, FaultSpec spec_in)
    : inner(std::move(inner_in)), spec(std::move(spec_in)),
      schedule(spec.seed)
{
    if (!inner)
        throw std::invalid_argument(
            "FaultInjectingBackend requires a backend to wrap");
    spec.validate();
}

std::string
FaultInjectingBackend::name() const
{
    return "fault+" + inner->name();
}

std::string
FaultInjectingBackend::workloadName() const
{
    return inner->workloadName();
}

bool
FaultInjectingBackend::deterministic() const
{
    return inner->deterministic();
}

void
FaultInjectingBackend::setDay(int day)
{
    inner->setDay(day);
}

RunResult
FaultInjectingBackend::run()
{
    size_t index = invocationCount++;
    // Exactly one draw per invocation keeps the schedule a pure
    // function of (seed, index) for resume/reproduce replays.
    double draw = schedule.nextDouble();
    std::string tag = " (injected, invocation " +
                      std::to_string(index) + ")";

    double band = spec.crashProbability;
    if (draw < band) {
        return RunResult::failure(FailureKind::SignalCrash,
                                  "killed by signal 11" + tag);
    }
    band += spec.spawnErrorProbability;
    if (draw < band) {
        return RunResult::failure(FailureKind::SpawnError,
                                  "fork: resource unavailable" + tag);
    }
    band += spec.hangProbability;
    if (draw < band) {
        return RunResult::failure(FailureKind::Timeout,
                                  "hung past the time budget" + tag);
    }
    band += spec.hangRecoverProbability;
    if (draw < band) {
        // Stall for real wall-clock time, then complete normally:
        // metrics are untouched, so the run log stays byte-identical
        // to an unstalled schedule — only a supervisor's deadline
        // clock can tell the difference.
        double stall = hangRecoverStallSeconds(spec, index);
        if (stall > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(stall));
        }
        return inner->run();
    }
    band += spec.corruptProbability;
    if (draw < band) {
        RunResult result = inner->run();
        result.metrics.clear();
        result.output = "\x01garbage\x02" + result.output;
        result.fail(FailureKind::UnparsableOutput,
                    "output corrupted" + tag);
        return result;
    }
    band += spec.flakyExitProbability;
    if (draw < band) {
        RunResult result = inner->run();
        result.metrics.clear();
        result.fail(FailureKind::NonzeroExit,
                    "exited with status 1" + tag);
        return result;
    }
    band += spec.slowProbability;
    if (draw < band) {
        RunResult result = inner->run();
        auto it = result.metrics.find(spec.slowMetric);
        if (it != result.metrics.end())
            it->second *= spec.slowFactor;
        return result;
    }
    return inner->run();
}

std::vector<RunResult>
FaultInjectingBackend::runBatch(size_t n)
{
    std::vector<RunResult> results;
    results.reserve(n);
    for (size_t i = 0; i < n; ++i)
        results.push_back(run());
    return results;
}

} // namespace launcher
} // namespace sharp
