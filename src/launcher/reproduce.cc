#include "launcher/reproduce.hh"

#include <algorithm>
#include <climits>
#include <stdexcept>

#include "check/diagnostic.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "launcher/faas_backend.hh"
#include "launcher/local_backend.hh"
#include "launcher/resume.hh"
#include "launcher/scenario_backend.hh"
#include "launcher/sim_backend.hh"
#include "record/sysinfo.hh"
#include "simd/dispatch.hh"
#include "sim/faas.hh"
#include "sim/machine.hh"
#include "sim/rodinia.hh"
#include "util/string_utils.hh"

namespace sharp
{
namespace launcher
{

LaunchOptions
ReproSpec::launchOptions() const
{
    LaunchOptions options;
    options.warmupRounds = experiment.options.warmupRuns;
    options.minSamples = experiment.options.minSamples;
    options.maxSamples = experiment.options.maxSamples;
    options.concurrency = concurrency;
    options.jobs = jobs;
    options.day = day;
    options.maxFailures = maxFailures;
    options.maxFailureRate = maxFailureRate;
    options.retry = retry;
    return options;
}

namespace
{

/** Backend kinds makeBackend() can construct. */
const std::vector<std::string> knownBackendKinds = {
    "sim", "sim-phased", "faas", "local", "scenario"};

/** Metrics each simulated backend kind emits (local emits anything). */
std::vector<std::string>
backendMetricNames(const std::string &kind)
{
    if (kind == "sim")
        return {"execution_time"};
    if (kind == "sim-phased")
        return {"execution_time", "detection_time", "tracking_time"};
    if (kind == "faas")
        return {"execution_time", "response_time", "cold_start"};
    return {};
}

/**
 * The run-spec checker behind both fromJson (structural depth: what
 * loading must reject) and checkRunSpec (adds the registry-reference
 * lints; fromJson skips those because specs with unknown kinds must
 * still round-trip through metadata — see makeBackend, which is where
 * execution rejects them).
 */
void
checkRunSpecImpl(const json::Value &doc, check::CheckResult &out,
                 bool semantic)
{
    if (!doc.isObject()) {
        out.error(doc, "wrong-type", "run spec must be a JSON object");
        return;
    }
    static const std::vector<std::string> known = {
        "backend",     "workload",     "argv",
        "timeout",     "machines",     "day",
        "seed",        "concurrency",  "jobs",
        "experiment",  "max_failures", "max_failure_rate",
        "retry",       "fault",        "stats_cache",
        "scenario"};
    check::checkKnownFields(doc, known, "run spec", out);

    auto stringField = [&](const char *key) {
        const json::Value *value = doc.find(key);
        if (value && !value->isString())
            out.error(*value, "wrong-type",
                      "'" + std::string(key) + "' must be a string");
        return value;
    };
    const json::Value *backend = stringField("backend");
    stringField("workload");
    const json::Value *scenario = stringField("scenario");

    if (const json::Value *argv = doc.find("argv")) {
        if (!argv->isArray()) {
            out.error(*argv, "wrong-type", "'argv' must be an array");
        } else {
            for (const auto &arg : argv->asArray()) {
                if (!arg.isString())
                    out.error(arg, "wrong-type",
                              "argv entries must be strings");
            }
        }
    }
    if (const json::Value *timeout = doc.find("timeout")) {
        if (!timeout->isNumber() || timeout->asNumber() < 0.0)
            out.error(*timeout, "out-of-range",
                      "'timeout' must be a number >= 0");
    }
    if (const json::Value *machines = doc.find("machines")) {
        if (!machines->isArray()) {
            out.error(*machines, "wrong-type",
                      "'machines' must be an array");
        } else {
            for (const auto &machine : machines->asArray()) {
                if (!machine.isString())
                    out.error(machine, "wrong-type",
                              "machine ids must be strings");
            }
        }
    }

    check::checkIntegerField(doc, "concurrency", 1, out);
    check::checkIntegerField(doc, "jobs", 1, out);
    check::checkIntegerField(doc, "max_failures", 0, out);
    check::checkIntegerField(doc, "day", 0, out, INT_MAX);
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
    if (const json::Value *rate = doc.find("max_failure_rate")) {
        if (!rate->isNumber() || rate->asNumber() <= 0.0 ||
            rate->asNumber() > 1.0) {
            out.error(*rate, "out-of-range",
                      "'max_failure_rate' must be in (0, 1]");
        }
    }

    if (const json::Value *experiment = doc.find("experiment"))
        core::checkExperimentConfig(*experiment, out);
    if (const json::Value *retry = doc.find("retry"))
        checkRetryPolicy(*retry, out);
    const json::Value *fault = doc.find("fault");
    if (fault)
        checkFaultSpec(*fault, out);

    if (!semantic)
        return;

    if (const json::Value *legacy = doc.find("stats_cache"))
        out.report(check::Severity::Note, *legacy, "obsolete-stats-cache",
                   obsoleteStatsCacheMessage);

    // Registry-reference lints: what a campaign would only discover
    // at backend-construction time, minutes into a queue slot.
    std::string kind = doc.getString("backend", "sim");
    if (backend && backend->isString() &&
        std::find(knownBackendKinds.begin(), knownBackendKinds.end(),
                  kind) == knownBackendKinds.end()) {
        out.error(*backend, "unknown-backend",
                  "unknown backend kind '" + kind + "'",
                  check::suggestName(kind, knownBackendKinds));
    }

    std::vector<std::string> workloads;
    for (const auto &spec : sim::rodiniaRegistry())
        workloads.push_back(spec.name);
    const json::Value *workload = doc.find("workload");
    if (kind == "sim" || kind == "faas") {
        std::string name = doc.getString("workload", "");
        bool registered =
            std::find(workloads.begin(), workloads.end(), name) !=
            workloads.end();
        if (!registered) {
            const json::Value &where = workload ? *workload : doc;
            out.error(where, "dangling-workload",
                      name.empty()
                          ? "backend '" + kind +
                                "' requires a 'workload'"
                          : "workload '" + name +
                                "' is not in the Rodinia registry",
                      name.empty()
                          ? "see `sharp list` for the registry"
                          : check::suggestName(name, workloads));
        }
    }

    if (kind == "scenario") {
        if (!scenario || !scenario->isString() ||
            scenario->asString().empty()) {
            out.error(scenario ? *scenario : doc, "missing-field",
                      "the scenario backend requires a 'scenario' file "
                      "path");
        }
    } else if (scenario != nullptr) {
        out.warning(*scenario, "unused-field",
                    "'scenario' is ignored by backend '" + kind + "'");
    }

    if (kind != "local" && kind != "scenario") {
        std::vector<std::string> machineIds;
        for (const auto &machine : sim::machineRegistry())
            machineIds.push_back(machine.id);
        if (const json::Value *machines = doc.find("machines")) {
            if (machines->isArray()) {
                for (const auto &machine : machines->asArray()) {
                    if (!machine.isString())
                        continue;
                    const std::string &id = machine.asString();
                    if (std::find(machineIds.begin(), machineIds.end(),
                                  id) == machineIds.end()) {
                        out.error(machine, "unknown-machine",
                                  "machine '" + id +
                                      "' is not in the machine "
                                      "registry",
                                  check::suggestName(id, machineIds));
                    }
                }
            }
        }
    } else if (kind == "local") {
        const json::Value *argv = doc.find("argv");
        if (!argv || !argv->isArray() || argv->size() == 0) {
            out.error(argv ? *argv : doc, "missing-field",
                      "the local backend requires a non-empty 'argv'");
        }
        out.report(check::Severity::Note, doc, "nondeterministic",
                   "the local backend replays the command, not the "
                   "samples; a reproduction will not be bit-exact");
    }

    // A slow fault that inflates a metric the backend never emits
    // silently does nothing — almost certainly a typo.
    if (fault && fault->isObject() &&
        fault->getNumber("slow", 0.0) > 0.0 && kind != "local") {
        std::string metric =
            fault->getString("slow_metric", "execution_time");
        std::vector<std::string> metrics = backendMetricNames(kind);
        if (!metrics.empty() &&
            std::find(metrics.begin(), metrics.end(), metric) ==
                metrics.end()) {
            const json::Value *where = fault->find("slow_metric");
            out.warning(where ? *where : *fault, "dangling-metric",
                        "slow faults inflate metric '" + metric +
                            "', which backend '" + kind +
                            "' never emits",
                        check::suggestName(metric, metrics));
        }
    }
}

/**
 * The tail of every run-spec loader: check @p doc into @p findings,
 * which may hold earlier findings, throw on any error, and build.
 */
ReproSpec
loadRunSpec(const json::Value &doc, check::CheckResult findings)
{
    checkRunSpecImpl(doc, findings, false);
    check::throwIfErrors(std::move(findings));

    ReproSpec spec;
    spec.backendKind = doc.getString("backend", spec.backendKind);
    spec.workload = doc.getString("workload", "");
    spec.scenario = doc.getString("scenario", "");
    if (const json::Value *argv = doc.find("argv")) {
        for (const auto &arg : argv->asArray())
            spec.argv.push_back(arg.asString());
    }
    spec.timeoutSeconds = doc.getNumber("timeout", spec.timeoutSeconds);
    if (const json::Value *machines = doc.find("machines")) {
        for (const auto &machine : machines->asArray())
            spec.machines.push_back(machine.asString());
    } else {
        spec.machines = {"machine1"};
    }
    spec.day = static_cast<int>(doc.getLong("day", 0));
    spec.seed = doc.getUint64("seed", 1);
    spec.concurrency = static_cast<size_t>(doc.getLong("concurrency", 1));
    spec.jobs = static_cast<size_t>(doc.getLong("jobs", 1));
    if (const json::Value *experiment = doc.find("experiment"))
        spec.experiment = core::ExperimentConfig::fromJson(*experiment);
    spec.experiment.seed = spec.seed;
    spec.maxFailures = static_cast<size_t>(doc.getLong(
        "max_failures", static_cast<long>(spec.maxFailures)));
    spec.maxFailureRate =
        doc.getNumber("max_failure_rate", spec.maxFailureRate);
    if (const json::Value *retry = doc.find("retry"))
        spec.retry = RetryPolicy::fromJson(*retry);
    if (const json::Value *fault = doc.find("fault")) {
        spec.fault = FaultSpec::fromJson(*fault);
        spec.faultEnabled = true;
    }
    return spec;
}

/** How a `repro_*` metadata entry encodes its spec member. */
enum class Encoding
{
    Text, ///< the entry's text
    Json, ///< the JSON document the text holds
    List, ///< the strings of a `;`-separated list
};

/** One `repro_*` entry of a metadata Configuration section. */
struct ReproEntry
{
    const char *entry;
    const char *key;
    Encoding encoding;
    bool required;
};

/**
 * Every entry annotate() writes, in its order, and one it wrote
 * before: the one table of the metadata's reproduction section.
 */
const ReproEntry reproEntries[] = {
    {"repro_backend", "backend", Encoding::Text, true},
    {"repro_workload", "workload", Encoding::Text, true},
    {"repro_scenario", "scenario", Encoding::Text, false},
    {"repro_machines", "machines", Encoding::List, true},
    {"repro_day", "day", Encoding::Json, true},
    {"repro_seed", "seed", Encoding::Text, true},
    {"repro_concurrency", "concurrency", Encoding::Json, true},
    // Optional for metadata recorded before the parallel layer.
    {"repro_jobs", "jobs", Encoding::Json, false},
    {"repro_experiment", "experiment", Encoding::Json, true},
    {"repro_argv", "argv", Encoding::Json, false},
    {"repro_timeout", "timeout", Encoding::Json, false},
    // Optional for metadata recorded before the fault-tolerance layer.
    {"repro_max_failures", "max_failures", Encoding::Json, false},
    {"repro_max_failure_rate", "max_failure_rate", Encoding::Json, false},
    {"repro_retry", "retry", Encoding::Json, false},
    {"repro_fault", "fault", Encoding::Json, false},
    {"repro_stats_cache", "stats_cache", Encoding::Text, false},
};

} // anonymous namespace

void
checkRunSpec(const json::Value &doc, check::CheckResult &out)
{
    checkRunSpecImpl(doc, out, true);
}

ReproSpec
ReproSpec::fromJson(const json::Value &doc)
{
    return loadRunSpec(doc, {});
}

json::Value
ReproSpec::toJson() const
{
    json::Value doc = json::Value::makeObject();
    doc.set("backend", backendKind);
    doc.set("workload", workload);
    if (!scenario.empty())
        doc.set("scenario", scenario);
    if (!argv.empty()) {
        json::Value argv_list = json::Value::makeArray();
        for (const auto &arg : argv)
            argv_list.append(arg);
        doc.set("argv", std::move(argv_list));
        doc.set("timeout", timeoutSeconds);
    }
    json::Value machine_list = json::Value::makeArray();
    for (const auto &machine : machines)
        machine_list.append(machine);
    doc.set("machines", std::move(machine_list));
    doc.set("day", day);
    // As a decimal string: JSON numbers are doubles, which would
    // round seeds >= 2^53 (see Value::getUint64).
    doc.set("seed", std::to_string(seed));
    doc.set("concurrency", concurrency);
    doc.set("jobs", jobs);
    doc.set("experiment", experiment.toJson());
    doc.set("max_failures", maxFailures);
    if (maxFailureRate < 1.0)
        doc.set("max_failure_rate", maxFailureRate);
    if (retry.enabled())
        doc.set("retry", retry.toJson());
    if (faultEnabled)
        doc.set("fault", fault.toJson());
    return doc;
}

void
annotate(record::RunLog &log, const ReproSpec &spec)
{
    // The entries reproSpecObject() reads back, in their encodings;
    // numbers as the six-decimal text metadata has always carried.
    json::Value doc = spec.toJson();
    for (const ReproEntry &repro : reproEntries) {
        const json::Value *value = doc.find(repro.key);
        if (!value)
            continue;
        std::string text;
        if (repro.encoding == Encoding::List) {
            std::vector<std::string> items;
            for (const auto &item : value->asArray())
                items.push_back(item.asString());
            text = util::join(items, ";");
        } else if (value->isString()) {
            text = value->asString();
        } else if (value->isNumber()) {
            text = util::formatDouble(value->asNumber(), 6);
        } else {
            text = json::write(*value);
        }
        log.setConfigEntry(repro.entry, text);
    }
    // The dispatched SIMD backend is environment, not spec: decisions
    // are bitwise backend-invariant by the kernel contract, so this is
    // provenance for auditing, and `sharp reproduce` warns (not fails)
    // when replaying on a different backend.
    log.setConfigEntry("repro_simd_backend", simd::activeBackendName());
}

json::Value
reproSpecObject(const record::MetadataDocument &doc,
                check::CheckResult &out)
{
    const auto *section = doc.findSection("Configuration");
    if (!section) {
        out.error("missing-field",
                  "metadata lacks a 'Configuration' section; `sharp "
                  "reproduce` cannot rebuild the experiment");
        return json::Value();
    }
    json::Value spec = json::Value::makeObject();
    spec.setLocation({static_cast<uint32_t>(section->line), 0});
    for (const ReproEntry &repro : reproEntries) {
        const auto *entry = doc.findEntry(section->name, repro.entry);
        if (!entry) {
            if (repro.required) {
                out.error(spec, "missing-field",
                          "metadata lacks reproduction entry '" +
                              std::string(repro.entry) + "'");
            }
            continue;
        }
        json::Value value(entry->value);
        if (repro.encoding == Encoding::Json) {
            try {
                value = json::parse(entry->value);
            } catch (const json::ParseError &problem) {
                out.report(check::Severity::Error,
                           {static_cast<uint32_t>(entry->line), 0},
                           "bad-metadata",
                           "'" + entry->key + "' is not JSON: " +
                               problem.what());
                continue;
            }
        } else if (repro.encoding == Encoding::List) {
            value = json::Value::makeArray();
            for (const auto &item : util::split(entry->value, ';')) {
                if (!item.empty())
                    value.append(item);
            }
        }
        value.moveToLine(static_cast<uint32_t>(entry->line), false);
        spec.set(repro.key, std::move(value));
    }
    return spec;
}

ReproSpec
reproSpecFromMetadata(const record::MetadataDocument &doc,
                      check::CheckResult findings)
{
    json::Value spec = reproSpecObject(doc, findings);
    if (!findings.ok())
        throw check::CheckFailure(std::move(findings));
    return loadRunSpec(spec, std::move(findings));
}

namespace
{

std::shared_ptr<Backend>
makeInnerBackend(const ReproSpec &spec)
{
    if (spec.backendKind == "local") {
        if (spec.argv.empty())
            throw std::invalid_argument(
                "local backend requires a non-empty 'argv'");
        LocalProcessBackend::Options options;
        options.timeoutSeconds = spec.timeoutSeconds;
        options.workload = spec.workload;
        return std::make_shared<LocalProcessBackend>(spec.argv,
                                                     options);
    }
    if (spec.backendKind == "scenario") {
        if (spec.scenario.empty()) {
            throw std::invalid_argument(
                "scenario backend requires a 'scenario' file path");
        }
        return makeScenarioBackend(sim::loadScenario(spec.scenario),
                                   spec.seed);
    }
    if (spec.machines.empty())
        throw std::invalid_argument("ReproSpec requires >= 1 machine");

    if (spec.backendKind == "sim") {
        return std::make_shared<SimBackend>(
            sim::rodiniaByName(spec.workload),
            sim::machineById(spec.machines.front()), spec.day,
            spec.seed);
    }
    if (spec.backendKind == "sim-phased") {
        return std::make_shared<PhasedSimBackend>(
            sim::machineById(spec.machines.front()), spec.seed);
    }
    if (spec.backendKind == "faas") {
        std::vector<sim::MachineSpec> workers;
        for (const auto &id : spec.machines)
            workers.push_back(sim::machineById(id));
        auto cluster = std::make_unique<sim::FaasCluster>(
            sim::rodiniaByName(spec.workload), std::move(workers),
            spec.seed);
        return std::make_shared<FaasBackend>(std::move(cluster),
                                             spec.workload);
    }
    throw std::invalid_argument("unknown reproduction backend kind '" +
                                spec.backendKind + "'");
}

} // namespace

std::shared_ptr<Backend>
makeBackend(const ReproSpec &spec)
{
    std::shared_ptr<Backend> backend = makeInnerBackend(spec);
    if (spec.faultEnabled)
        backend = std::make_shared<FaultInjectingBackend>(
            std::move(backend), spec.fault);
    return backend;
}

CampaignRun
runCampaign(const ReproSpec &spec, const CampaignIo &io)
{
    CampaignRun run;
    run.spec = spec;
    bool resuming = !io.journalPath.empty() &&
                    io.journalMode == record::JournalMode::Resume;
    ResumedCampaign resumed;
    if (resuming) {
        resumed = loadResumedCampaign(io.journalPath);
        check::CheckResult findings;
        findings.setArtifact(io.journalPath);
        run.spec = loadRunSpec(resumed.spec, std::move(findings));
        run.replayed = resumed.done;
    }
    std::unique_ptr<record::RunJournal> journal;
    if (!io.journalPath.empty() && !run.replayed) {
        journal = std::make_unique<record::RunJournal>(io.journalPath,
                                                       io.journalMode);
        if (!resuming)
            journal->writeSpec(run.spec.toJson());
    }

    ReproSpec live = run.spec;
    if (io.incarnation != 0)
        live.fault.incarnation = io.incarnation;
    LaunchOptions options = live.launchOptions();
    options.journal = journal.get();
    options.resume = resuming ? &resumed.state : nullptr;
    options.interruptFlag = io.interruptFlag;
    options.roundObserver = io.roundObserver;
    Launcher launcher(makeBackend(live), live.experiment.makeRule(),
                      options);
    run.report = launcher.launch();
    annotate(run.report.log, run.spec);
    if (run.spec.backendKind == "sim" ||
        run.spec.backendKind == "sim-phased" ||
        run.spec.backendKind == "faas") {
        run.report.log.setSystemInfo(record::describeSimulatedMachine(
            sim::machineById(run.spec.machines.front())));
    } else if (run.spec.backendKind == "local") {
        run.report.log.setSystemInfo(record::captureHostInfo());
    }
    return run;
}

} // namespace launcher
} // namespace sharp
