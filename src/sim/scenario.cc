#include "sim/scenario.hh"

#include <fstream>
#include <stdexcept>

#include "check/diagnostic.hh"
#include "json/parser.hh"

namespace sharp
{
namespace sim
{

const char kScenarioSchema[] = "sharp-scenario-v1";

const char *
traceModeName(TraceMode mode)
{
    switch (mode) {
    case TraceMode::Verbatim:
        return "verbatim";
    case TraceMode::Shuffled:
        return "shuffled";
    case TraceMode::Bootstrap:
        return "bootstrap";
    }
    return "verbatim";
}

TraceMode
traceModeFromName(const std::string &name)
{
    if (name == "verbatim")
        return TraceMode::Verbatim;
    if (name == "shuffled")
        return TraceMode::Shuffled;
    if (name == "bootstrap")
        return TraceMode::Bootstrap;
    throw std::invalid_argument("unknown trace mode: " + name);
}

namespace
{

const std::vector<std::string> &
traceModeNames()
{
    static const std::vector<std::string> names = {"verbatim", "shuffled",
                                                   "bootstrap"};
    return names;
}

/** Family names plus "trace", for validation and hints. */
std::vector<std::string>
scenarioFamilyNames()
{
    std::vector<std::string> names = rng::familyNames();
    names.push_back("trace");
    return names;
}

bool
fileExists(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return in.good();
}

/** Join @p relative onto @p baseDir unless absolute or baseDir empty. */
std::string
joinPath(const std::string &baseDir, const std::string &relative)
{
    if (baseDir.empty() || relative.empty() || relative.front() == '/')
        return relative;
    return baseDir + "/" + relative;
}

void
checkFamilyParams(const json::Value &doc, const std::string &family,
                  check::CheckResult &out)
{
    const json::Value *params = doc.find("params");
    if (params == nullptr)
        return;
    if (!params->isObject()) {
        out.error(*params, "wrong-type", "'params' must be an object");
        return;
    }
    std::vector<std::string> known = rng::familyParamNames(family);
    if (family == "regime-switch")
        known.push_back("levels");
    check::checkKnownFields(*params, known,
                            "params of family '" + family + "'", out);
    rng::FamilyParams parsed;
    bool typed = true;
    for (const auto &[key, value] : params->members()) {
        if (key == "levels" && family == "regime-switch") {
            if (!value.isArray()) {
                out.error(value, "wrong-type", "'levels' must be an array");
                typed = false;
                continue;
            }
            for (const auto &level : value.asArray()) {
                if (!level.isNumber()) {
                    out.error(level, "wrong-type",
                              "'levels' entries must be numbers");
                    typed = false;
                }
            }
            if (typed && value.size() < 2) {
                out.error(value, "out-of-range",
                          "'levels' needs at least 2 entries");
                typed = false;
            }
            if (typed)
                for (const auto &level : value.asArray())
                    parsed.levels.push_back(level.asNumber());
            continue;
        }
        if (!value.isNumber()) {
            out.error(value, "wrong-type",
                      "param '" + key + "' must be a number");
            typed = false;
            continue;
        }
        parsed.scalars[key] = value.asNumber();
    }
    if (!typed)
        return;
    // The family constructors are the single source of truth for
    // parameter ranges; build a throwaway sampler to run them.
    try {
        rng::makeFamilySampler(family, parsed);
    } catch (const std::invalid_argument &ex) {
        out.error(*params, "out-of-range", ex.what());
    }
}

void
checkTraceBlock(const json::Value &doc, const std::string &baseDir,
                check::CheckResult &out)
{
    const json::Value *trace = doc.find("trace");
    if (trace == nullptr) {
        out.error(doc, "missing-field",
                  "family 'trace' requires a 'trace' object");
        return;
    }
    if (!trace->isObject()) {
        out.error(*trace, "wrong-type", "'trace' must be an object");
        return;
    }
    check::checkKnownFields(*trace, {"path", "metric", "mode"},
                            "the trace block", out);
    const json::Value *path = trace->find("path");
    if (path == nullptr) {
        out.error(*trace, "missing-field", "the trace block needs a 'path'");
    } else if (!path->isString() || path->asString().empty()) {
        out.error(*path, "wrong-type",
                  "trace 'path' must be a non-empty string");
    } else if (!baseDir.empty()) {
        std::string resolved = joinPath(baseDir, path->asString());
        if (!fileExists(resolved)) {
            out.warning(*path, "dangling-trace",
                        "trace file '" + resolved + "' does not exist");
        }
    }
    const json::Value *metric = trace->find("metric");
    if (metric != nullptr && (!metric->isString() ||
                              metric->asString().empty())) {
        out.error(*metric, "wrong-type",
                  "trace 'metric' must be a non-empty string");
    }
    const json::Value *mode = trace->find("mode");
    if (mode != nullptr) {
        if (!mode->isString()) {
            out.error(*mode, "wrong-type", "trace 'mode' must be a string");
        } else {
            try {
                traceModeFromName(mode->asString());
            } catch (const std::invalid_argument &) {
                out.error(*mode, "unknown-name",
                          "unknown trace mode '" + mode->asString() + "'",
                          check::suggestName(mode->asString(),
                                             traceModeNames()));
            }
        }
    }
}

} // namespace

void
checkScenario(const json::Value &doc, const std::string &baseDir,
              check::CheckResult &out)
{
    if (!doc.isObject()) {
        out.error("wrong-type", "a scenario must be a JSON object");
        return;
    }
    check::checkKnownFields(doc,
                            {"schema", "name", "family", "description",
                             "seed", "params", "trace"},
                            "the scenario", out);
    const json::Value *schema = doc.find("schema");
    if (schema == nullptr) {
        out.error(doc, "missing-field",
                  "a scenario needs \"schema\": \"" +
                      std::string(kScenarioSchema) + "\"");
    } else if (!schema->isString() ||
               schema->asString() != kScenarioSchema) {
        out.error(*schema, "schema-mismatch",
                  "expected schema tag '" + std::string(kScenarioSchema) +
                      "'");
    }
    const json::Value *name = doc.find("name");
    if (name == nullptr)
        out.error(doc, "missing-field", "a scenario needs a 'name'");
    else if (!name->isString() || name->asString().empty())
        out.error(*name, "wrong-type", "'name' must be a non-empty string");
    const json::Value *description = doc.find("description");
    if (description != nullptr && !description->isString())
        out.error(*description, "wrong-type", "'description' must be a string");
    try {
        doc.getUint64("seed", 1);
    } catch (const std::exception &) {
        out.error(*doc.find("seed"), "wrong-type",
                  "'seed' must be a non-negative integer or decimal string");
    }
    const json::Value *family = doc.find("family");
    if (family == nullptr) {
        out.error(doc, "missing-field", "a scenario needs a 'family'");
        return;
    }
    if (!family->isString()) {
        out.error(*family, "wrong-type", "'family' must be a string");
        return;
    }
    const std::string &kind = family->asString();
    if (kind == "trace") {
        checkTraceBlock(doc, baseDir, out);
        if (doc.contains("params") && doc.at("params").size() > 0) {
            out.warning(doc.at("params"), "unused-field",
                        "'params' is ignored for trace scenarios");
        }
        return;
    }
    if (!rng::isKnownFamily(kind)) {
        out.error(*family, "unknown-name",
                  "unknown scenario family '" + kind + "'",
                  check::suggestName(kind, scenarioFamilyNames()));
        return;
    }
    if (doc.contains("trace")) {
        out.warning(doc.at("trace"), "unused-field",
                    "'trace' is ignored for family '" + kind + "'");
    }
    checkFamilyParams(doc, kind, out);
}

std::string
ScenarioSpec::tracePath() const
{
    return joinPath(baseDir, trace.path);
}

std::shared_ptr<rng::Sampler>
ScenarioSpec::makeSampler() const
{
    if (isTrace()) {
        throw std::logic_error(
            "trace scenarios replay recorded rows; they have no sampler");
    }
    return rng::makeFamilySampler(family, params);
}

ScenarioSpec
ScenarioSpec::fromJson(const json::Value &doc, const std::string &baseDir)
{
    check::CheckResult findings;
    checkScenario(doc, /*baseDir=*/"", findings);
    check::throwIfErrors(std::move(findings));

    ScenarioSpec spec;
    spec.baseDir = baseDir;
    spec.name = doc.at("name").asString();
    spec.family = doc.at("family").asString();
    spec.description = doc.getString("description", "");
    spec.seed = doc.getUint64("seed", 1);
    if (spec.isTrace()) {
        const json::Value &trace = doc.at("trace");
        spec.trace.path = trace.at("path").asString();
        spec.trace.metric = trace.getString("metric", "execution_time");
        spec.trace.mode = traceModeFromName(trace.getString("mode",
                                                            "verbatim"));
        return spec;
    }
    const json::Value *params = doc.find("params");
    if (params != nullptr) {
        for (const auto &[key, value] : params->members()) {
            if (key == "levels") {
                for (const auto &level : value.asArray())
                    spec.params.levels.push_back(level.asNumber());
            } else {
                spec.params.scalars[key] = value.asNumber();
            }
        }
    }
    return spec;
}

json::Value
ScenarioSpec::toJson() const
{
    json::Value doc = json::Value::makeObject();
    doc.set("schema", kScenarioSchema);
    doc.set("name", name);
    doc.set("family", family);
    if (!description.empty())
        doc.set("description", description);
    // Decimal string: the lossless 64-bit encoding (see Value::getUint64).
    doc.set("seed", std::to_string(seed));
    if (isTrace()) {
        json::Value block = json::Value::makeObject();
        block.set("path", trace.path);
        block.set("metric", trace.metric);
        block.set("mode", traceModeName(trace.mode));
        doc.set("trace", std::move(block));
        return doc;
    }
    if (!params.scalars.empty() || !params.levels.empty()) {
        json::Value block = json::Value::makeObject();
        if (!params.levels.empty()) {
            json::Value levels = json::Value::makeArray();
            for (double level : params.levels)
                levels.append(level);
            block.set("levels", std::move(levels));
        }
        for (const auto &[key, value] : params.scalars)
            block.set(key, value);
        doc.set("params", std::move(block));
    }
    return doc;
}

ScenarioSpec
loadScenario(const std::string &path)
{
    // Findings carry the file, as `sharp check` prints them.
    check::CheckResult located;
    located.setArtifact(path);
    try {
        return ScenarioSpec::fromJson(json::parseFile(path), dirNameOf(path));
    } catch (const json::ParseError &problem) {
        located.syntaxError(problem);
    } catch (const check::CheckFailure &failure) {
        for (const check::Diagnostic &finding :
             failure.result().diagnostics())
            located.add(finding);
    }
    throw check::CheckFailure(std::move(located));
}

rng::SyntheticSpec
scenarioDistribution(const ScenarioSpec &spec)
{
    if (spec.isTrace()) {
        throw std::invalid_argument(
            "trace scenario '" + spec.name +
            "' has no generative ground truth to calibrate against");
    }
    rng::SyntheticSpec dist;
    dist.name = spec.name;
    dist.truth = rng::familyTruth(spec.family);
    size_t modes = spec.family == "regime-switch"
                       ? (spec.params.levels.empty() ? 2
                                                     : spec.params.levels.size())
                       : 1;
    dist.trueModes = static_cast<int>(modes);
    dist.correlated = spec.family != "heavy-tail-burst";
    ScenarioSpec copy = spec;
    dist.make = [copy] { return copy.makeSampler(); };
    return dist;
}

std::string
dirNameOf(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? "" : path.substr(0, slash);
}

} // namespace sim
} // namespace sharp
