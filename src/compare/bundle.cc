#include "compare/bundle.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>

#include "check/diagnostic.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "record/csv.hh"
#include "record/journal.hh"
#include "util/string_utils.hh"
#include "util/thread_pool.hh"

namespace fs = std::filesystem;

namespace sharp
{
namespace compare
{

FileSamples
ingestCsv(const std::string &path, const CaptureOptions &options)
{
    record::CsvTable table = record::CsvTable::load(path);
    auto metricCol = table.columnIndex(options.metric);
    if (!metricCol) {
        throw std::runtime_error("input has no '" + options.metric +
                                 "' column: " + path);
    }
    auto groupCol = table.columnIndex(options.groupBy);
    auto warmupCol = table.columnIndex("warmup");
    auto failureCol = table.columnIndex("failure");

    FileSamples out;
    for (size_t r = 0; r < table.numRows(); ++r) {
        if (warmupCol && table.cell(r, *warmupCol) == "true") {
            ++out.excludedWarmup;
            continue;
        }
        if (failureCol && table.cell(r, *failureCol) != "none") {
            ++out.excludedFailures;
            continue;
        }
        auto value = util::parseDouble(table.cell(r, *metricCol));
        if (!value)
            continue;
        const std::string &name =
            groupCol ? table.cell(r, *groupCol) : std::string("all");
        out.byScenario[name.empty() ? "all" : name].push_back(*value);
    }
    return out;
}

namespace
{

FileSamples
ingestJournal(const std::string &path, const CaptureOptions &options)
{
    record::JournalContents journal = record::readJournal(path);
    FileSamples out;
    for (const record::RunRecord &rec : journal.records) {
        if (rec.warmup) {
            ++out.excludedWarmup;
            continue;
        }
        if (!rec.succeeded()) {
            ++out.excludedFailures;
            continue;
        }
        auto it = rec.metrics.find(options.metric);
        if (it == rec.metrics.end())
            continue;
        const std::string &name =
            rec.workload.empty() ? std::string("all") : rec.workload;
        out.byScenario[name].push_back(it->second);
    }
    return out;
}

json::Value
summaryToJson(const stats::Summary &summary)
{
    json::Value doc = json::Value::makeObject();
    doc.set("mean", summary.mean);
    doc.set("stddev", summary.stddev);
    doc.set("min", summary.min);
    doc.set("max", summary.max);
    doc.set("median", summary.median);
    doc.set("q1", summary.q1);
    doc.set("q3", summary.q3);
    doc.set("p05", summary.p05);
    doc.set("p95", summary.p95);
    doc.set("p99", summary.p99);
    doc.set("cv", summary.coefficientOfVariation);
    return doc;
}

/** The file a bundle path denotes (directory -> its baseline.json). */
std::string
bundleFile(const std::string &path, bool forWrite)
{
    if (util::endsWith(path, ".json")) {
        fs::path parent = fs::path(path).parent_path();
        if (forWrite && !parent.empty())
            fs::create_directories(parent);
        return path;
    }
    if (forWrite)
        fs::create_directories(path);
    return (fs::path(path) / "baseline.json").string();
}

} // anonymous namespace

const ScenarioSamples *
BaselineBundle::find(const std::string &name) const
{
    for (const ScenarioSamples &scenario : scenarios) {
        if (scenario.name == name)
            return &scenario;
    }
    return nullptr;
}

json::Value
BaselineBundle::toJson() const
{
    json::Value doc = json::Value::makeObject();
    doc.set("schema", kBaselineBundleSchema);
    doc.set("metric", metric);
    doc.set("group_by", groupBy);

    json::Value inputList = json::Value::makeArray();
    for (const std::string &input : inputs)
        inputList.append(input);
    doc.set("inputs", std::move(inputList));

    json::Value excluded = json::Value::makeObject();
    excluded.set("warmup", excludedWarmup);
    excluded.set("failures", excludedFailures);
    doc.set("excluded", std::move(excluded));

    json::Value scenarioMap = json::Value::makeObject();
    for (const ScenarioSamples &scenario : scenarios) {
        json::Value entry = json::Value::makeObject();
        entry.set("n", scenario.sorted.size());
        json::Value samples = json::Value::makeArray();
        for (double v : scenario.sorted)
            samples.append(v);
        entry.set("samples", std::move(samples));
        entry.set("summary", summaryToJson(scenario.summary));
        scenarioMap.set(scenario.name, std::move(entry));
    }
    doc.set("scenarios", std::move(scenarioMap));
    return doc;
}

BaselineBundle
BaselineBundle::fromJson(const json::Value &doc)
{
    check::CheckResult result;
    checkBaselineBundle(doc, result);
    check::throwIfErrors(std::move(result));

    BaselineBundle bundle;
    bundle.metric = doc.getString("metric", "");
    bundle.groupBy = doc.getString("group_by", "");
    if (const json::Value *inputList = doc.find("inputs")) {
        for (const json::Value &input : inputList->asArray())
            bundle.inputs.push_back(input.asString());
    }
    if (const json::Value *excluded = doc.find("excluded")) {
        bundle.excludedWarmup = static_cast<size_t>(
            excluded->getNumber("warmup", 0.0));
        bundle.excludedFailures = static_cast<size_t>(
            excluded->getNumber("failures", 0.0));
    }
    for (const auto &[name, entry] : doc.at("scenarios").members()) {
        ScenarioSamples scenario;
        scenario.name = name;
        for (const json::Value &sample : entry.at("samples").asArray())
            scenario.sorted.push_back(sample.asNumber());
        scenario.summary =
            stats::Summary::compute(scenario.sorted, scenario.sorted);
        bundle.scenarios.push_back(std::move(scenario));
    }
    std::sort(bundle.scenarios.begin(), bundle.scenarios.end(),
              [](const ScenarioSamples &a, const ScenarioSamples &b) {
                  return a.name < b.name;
              });
    return bundle;
}

BaselineBundle
captureBaseline(const std::vector<std::string> &inputs,
                const CaptureOptions &options)
{
    if (inputs.empty())
        throw std::invalid_argument("baseline capture needs at least "
                                    "one input file");

    // Parse files in parallel, but land each result in its input's
    // slot so the merge below is in input order for any jobs count.
    std::vector<FileSamples> parsed(inputs.size());
    util::parallelFor(options.jobs, inputs.size(), [&](size_t i) {
        parsed[i] = util::endsWith(inputs[i], ".jsonl")
                        ? ingestJournal(inputs[i], options)
                        : ingestCsv(inputs[i], options);
    });

    BaselineBundle bundle;
    bundle.metric = options.metric;
    bundle.groupBy = options.groupBy;
    bundle.inputs = inputs;

    std::map<std::string, std::vector<double>> merged;
    for (const FileSamples &file : parsed) {
        bundle.excludedWarmup += file.excludedWarmup;
        bundle.excludedFailures += file.excludedFailures;
        for (const auto &[name, values] : file.byScenario) {
            auto &into = merged[name];
            into.insert(into.end(), values.begin(), values.end());
        }
    }
    if (merged.empty()) {
        throw std::invalid_argument(
            "no usable samples: every row was warmup, failed, or "
            "missing the '" + options.metric + "' metric");
    }

    for (auto &[name, values] : merged) {
        ScenarioSamples scenario;
        scenario.name = name;
        scenario.sorted = std::move(values);
        std::sort(scenario.sorted.begin(), scenario.sorted.end());
        scenario.summary =
            stats::Summary::compute(scenario.sorted, scenario.sorted);
        bundle.scenarios.push_back(std::move(scenario));
    }
    return bundle;
}

std::string
saveBundle(const BaselineBundle &bundle, const std::string &path)
{
    std::string file = bundleFile(path, /*forWrite=*/true);
    std::string tmp = file + ".tmp";
    json::writeFile(bundle.toJson(), tmp);
    std::error_code ec;
    fs::rename(tmp, file, ec);
    if (ec) {
        std::remove(tmp.c_str());
        throw std::runtime_error("cannot write baseline bundle " + file +
                                 ": " + ec.message());
    }
    return file;
}

BaselineBundle
loadBundle(const std::string &path)
{
    std::string file =
        fs::is_directory(path) ? bundleFile(path, false) : path;
    return BaselineBundle::fromJson(json::parseFile(file));
}

void
checkBaselineBundle(const json::Value &doc, check::CheckResult &out)
{
    if (!doc.isObject()) {
        out.error("not-an-object",
                  "a baseline bundle must be a JSON object");
        return;
    }

    const json::Value *schema = doc.find("schema");
    if (!schema) {
        out.error(std::string("schema"), "missing 'schema' tag",
                  std::string("expected \"") + kBaselineBundleSchema +
                      "\"");
        return;
    }
    if (!schema->isString() ||
        schema->asString() != kBaselineBundleSchema) {
        out.error(*schema, "schema",
                  "not a baseline bundle (schema is " +
                      (schema->isString()
                           ? "'" + schema->asString() + "'"
                           : std::string("not a string")) +
                      ")",
                  std::string("expected \"") + kBaselineBundleSchema +
                      "\"");
        return;
    }

    check::checkKnownFields(doc,
                            {"schema", "metric", "group_by", "inputs",
                             "excluded", "scenarios"},
                            "baseline bundle", out);

    if (doc.getString("metric", "").empty())
        out.error("metric", "missing or empty 'metric'");

    if (const json::Value *inputList = doc.find("inputs")) {
        if (!inputList->isArray()) {
            out.error(*inputList, "inputs", "'inputs' must be an array");
        } else {
            for (const json::Value &input : inputList->asArray()) {
                if (!input.isString())
                    out.error(input, "inputs",
                              "'inputs' entries must be strings");
            }
        }
    }

    if (const json::Value *excluded = doc.find("excluded")) {
        if (!excluded->isObject()) {
            out.error(*excluded, "excluded",
                      "'excluded' must be an object");
        } else {
            for (const char *key : {"warmup", "failures"}) {
                const json::Value *count = excluded->find(key);
                if (count &&
                    (!count->isNumber() || count->asNumber() < 0))
                    out.error(*count, "excluded",
                              std::string("excluded '") + key +
                                  "' must be a non-negative count");
            }
        }
    }

    const json::Value *scenarios = doc.find("scenarios");
    if (!scenarios) {
        out.error("missing-scenarios", "missing 'scenarios' object");
        return;
    }
    if (!scenarios->isObject()) {
        out.error(*scenarios, "missing-scenarios",
                  "'scenarios' must be an object keyed by scenario name");
        return;
    }
    if (scenarios->members().empty()) {
        out.error(*scenarios, "empty-scenarios",
                  "a bundle needs at least one scenario");
        return;
    }

    for (const auto &[name, entry] : scenarios->members()) {
        const std::string where = "scenario '" + name + "'";
        if (!entry.isObject()) {
            out.error(entry, "scenario", where + " must be an object");
            continue;
        }
        check::checkKnownFields(entry, {"n", "samples", "summary"},
                                where, out);

        const json::Value *samples = entry.find("samples");
        if (!samples) {
            out.error(entry, "missing-samples",
                      where + " has no 'samples' array");
            continue;
        }
        if (!samples->isArray()) {
            out.error(*samples, "missing-samples",
                      where + ": 'samples' must be an array");
            continue;
        }
        if (samples->asArray().empty()) {
            out.error(*samples, "empty-samples",
                      where + ": 'samples' is empty");
            continue;
        }
        bool numeric = true;
        bool sorted = true;
        double previous = 0.0;
        for (size_t i = 0; i < samples->asArray().size(); ++i) {
            const json::Value &sample = samples->asArray()[i];
            if (!sample.isNumber() || !std::isfinite(sample.asNumber())) {
                out.error(sample, "bad-sample",
                          where + ": sample " + std::to_string(i) +
                              " is not a finite number");
                numeric = false;
                break;
            }
            if (i > 0 && sample.asNumber() < previous)
                sorted = false;
            previous = sample.asNumber();
        }
        if (!numeric)
            continue;
        if (!sorted) {
            out.error(*samples, "unsorted-samples",
                      where + ": samples must be sorted ascending",
                      "re-run `sharp baseline capture` instead of "
                      "editing the bundle by hand");
        }
        if (const json::Value *n = entry.find("n")) {
            if (!n->isNumber() ||
                n->asNumber() !=
                    static_cast<double>(samples->asArray().size())) {
                out.error(*n, "inconsistent-count",
                          where + ": 'n' disagrees with the number of "
                                  "samples");
            }
        }
        if (const json::Value *summary = entry.find("summary")) {
            if (!summary->isObject()) {
                out.error(*summary, "summary",
                          where + ": 'summary' must be an object");
            } else if (sorted) {
                double lo = samples->asArray().front().asNumber();
                double hi = samples->asArray().back().asNumber();
                double med = summary->getNumber("median", lo);
                if (med < lo || med > hi) {
                    out.warning(*summary, "summary-range",
                                where + ": summary median is outside "
                                        "the sample range");
                }
            }
        }
    }
}

} // namespace compare
} // namespace sharp
