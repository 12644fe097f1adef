#include "cli/cli.hh"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <initializer_list>
#include <memory>
#include <optional>

#include "calibrate/baseline.hh"
#include "calibrate/calibration.hh"
#include "check/analyzer.hh"
#include "check/campaign.hh"
#include "compare/bundle.hh"
#include "compare/compare.hh"
#include "core/stopping/stopping_rule.hh"
#include "json/writer.hh"
#include "launcher/fault_backend.hh"
#include "launcher/launcher.hh"
#include "launcher/reproduce.hh"
#include "launcher/retry.hh"
#include "launcher/suite.hh"
#include "record/journal.hh"
#include "simd/dispatch.hh"
#include "micro/micro_backend.hh"
#include "launcher/sim_backend.hh"
#include "json/parser.hh"
#include "record/csv.hh"
#include "record/metadata.hh"
#include "report/compare.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/protocol.hh"
#include "report/gate.hh"
#include "report/html.hh"
#include "report/report.hh"
#include "sim/machine.hh"
#include "sim/rodinia.hh"
#include "sim/scenario.hh"
#include "util/fs.hh"
#include "stats/descriptive.hh"
#include "util/string_utils.hh"
#include "util/table.hh"
#include "workflow/executor.hh"
#include "workflow/makefile_writer.hh"
#include "workflow/workflow_parser.hh"

#include <fstream>
#include <sstream>

namespace sharp
{
namespace cli
{

namespace
{

/** The flag --@p key of @p form; nullptr when it reads none. */
const Flag *
findFlag(const Form &form, const std::string &key)
{
    for (const Flag &flag : form.flags) {
        if (key == flag.name)
            return &flag;
    }
    return nullptr;
}

/** True when @p value lies outside @p range. */
bool
outside(Range range, double value)
{
    if (range == Range::NonNegative)
        return value < 0.0;
    if (range == Range::Positive)
        return value <= 0.0;
    if (range == Range::Fraction)
        return value <= 0.0 || value > 1.0;
    return false;
}

/** Throw a UsageError for a flag value that does not fit its kind. */
void
checkValues(const ParsedArgs &args, const Form &form)
{
    static const char *const ranges[] = {"a number", "a number >= 0",
                                         "a number > 0", "in (0, 1]"};
    for (const auto &[key, value] : args.flags) {
        const Flag *flag = findFlag(form, key);
        if (!flag) // --help
            continue;
        std::string wanted;
        if (flag->kind == FlagKind::Count) {
            auto parsed = util::parseUint64(value);
            if (!parsed || *parsed < flag->least)
                wanted = "an integer >= " + std::to_string(flag->least);
        } else if (flag->kind == FlagKind::Number) {
            auto parsed = util::parseDouble(value);
            if (!parsed || outside(flag->range, *parsed))
                wanted = ranges[static_cast<size_t>(flag->range)];
        } else if (flag->kind == FlagKind::Choice) {
            std::vector<std::string> options = util::split(flag->value, '|');
            if (std::find(options.begin(), options.end(), value) ==
                options.end())
                wanted = util::replaceAll(flag->value, "|", " or ");
        }
        if (!wanted.empty())
            throw UsageError("--" + key + " must be " + wanted);
    }
}

/** How @p form is called, e.g. `run --config FILE.json`. */
std::string
synopsis(const Form &form)
{
    std::string line = form.command;
    if (*form.operands)
        line += std::string(" ") + form.operands;
    if (const Flag *selector = findFlag(form, form.selector))
        line += std::string(" --") + form.selector + " " + selector->value;
    return line;
}

/**
 * True when @p args pick @p form by its selector: that flag, or that
 * first operand (any, for a placeholder such as `PROBE` for `probe`).
 */
bool
picks(const ParsedArgs &args, const Form &form)
{
    if (findFlag(form, form.selector))
        return args.has(form.selector);
    if (args.positional.empty())
        return false;
    bool literal = util::startsWith(form.operands, form.selector);
    return !literal || args.positional[0] == form.selector;
}

/** Write @p label, then @p text from column 31 on. */
void
helpRow(std::ostream &out, std::string label, const char *text)
{
    const std::string indent(31, ' ');
    if (label.size() < indent.size())
        label.resize(indent.size(), ' ');
    else
        label += "\n" + indent;
    out << label << util::replaceAll(text, "\n", "\n" + indent) << "\n";
}

/** `sharp help`, or @p command's forms alone; "" for no such command. */
std::string
usage(const std::string &command)
{
    std::ostringstream text;
    size_t shown = 0;
    if (command.empty()) {
        text << "usage: sharp <command> [options]\n"
                "       sharp <command> --help\n\ncommands:\n";
    }
    for (const Form &form : forms()) {
        if (!command.empty() && command != form.command)
            continue;
        ++shown;
        helpRow(text, "  " + synopsis(form), form.summary);
        for (const Flag &flag : form.flags) {
            std::string name = std::string("      --") + flag.name;
            if (flag.kind != FlagKind::Switch)
                name += std::string(" ") + flag.value;
            if (flag.name != std::string(form.selector))
                helpRow(text, name, flag.help);
        }
    }
    text << "\nexit codes: 0 ok, 1 error (compare --against: regression to\n"
            "            investigate; check: warnings only), 2 usage or "
            "malformed\n"
            "            artifact, 3 aborted by the failure policy, 130 "
            "interrupted\n"
            "            (campaign resumable with run --resume)\n";
    return shown > 0 ? text.str() : "";
}

/**
 * The first @p taken stopping-rule flags: run reads them all, suite
 * the first five and micro the first two.
 */
std::vector<Flag>
ruleFlags(size_t taken = SIZE_MAX)
{
    using enum FlagKind;
    static const std::vector<Flag> flags = {
        {"rule", Text, "NAME", "stopping rule (default ks; see `list`)"},
        {"threshold", Number, "X", "rule threshold"},
        {"level", Number, "X", "rule confidence level"},
        {"count", Number, "N", "samples the fixed rule takes"},
        {"min", Number, "N", "samples before the rule may stop"},
        {"quantile", Number, "X", "the tail-quantile rule's quantile"},
        {"prominence", Number, "X", "the modality rule's peak prominence"},
    };
    return {flags.begin(), flags.begin() + std::min(taken, flags.size())};
}

/**
 * Read the rule flags into @p config and build its rule, so a rule
 * name or parameter the rule rejects is a bad flag value like a
 * non-number.
 */
void
readRuleFlags(const ParsedArgs &args, core::ExperimentConfig &config)
{
    config.ruleName = args.get("rule", "ks");
    for (const Flag &flag : ruleFlags()) {
        if (flag.kind == FlagKind::Number && args.has(flag.name))
            args.number(flag.name, config.ruleParams[flag.name]);
    }
    try {
        config.makeRule();
    } catch (const std::exception &problem) {
        throw UsageError(problem.what());
    }
}

int
cmdList(const ParsedArgs &, std::ostream &out, std::ostream &)
{
    out << "Benchmarks (Rodinia models):\n";
    util::TextTable benchmarks({"name", "kind", "modes", "base (s)"});
    for (const auto &spec : sim::rodiniaRegistry()) {
        benchmarks.addRow(
            {spec.name,
             spec.kind == sim::BenchmarkKind::Cpu ? "CPU" : "CUDA",
             std::to_string(spec.numModes()),
             util::formatDouble(spec.baseSeconds, 2)});
    }
    out << benchmarks.render();

    out << "\nMachines:\n";
    util::TextTable machines({"id", "cpu", "cores", "ram (GiB)", "gpu"});
    for (const auto &machine : sim::machineRegistry()) {
        machines.addRow({machine.id, machine.cpu,
                         std::to_string(machine.cores),
                         std::to_string(machine.ramGib),
                         machine.gpu.has_value() ? machine.gpu->name
                                                 : "-"});
    }
    out << machines.render();

    out << "\nStopping rules:\n";
    for (const auto &name :
         core::StoppingRuleFactory::instance().names()) {
        out << "  " << name << "\n";
    }
    return 0;
}

int
cmdHelp(const ParsedArgs &, std::ostream &out, std::ostream &)
{
    out << usage("");
    return 0;
}

/** Set by SIGINT/SIGTERM; polled by the launcher between rounds. */
std::atomic<bool> g_interrupted{false};

void
onInterrupt(int)
{
    // Lock-free atomic stores are signal-safe ([support.signal]p3);
    // the POSIX allowlist the check consults predates std::atomic.
    g_interrupted.store(true); // NOLINT(bugprone-signal-handler)
}

/**
 * Route SIGINT/SIGTERM to g_interrupted for the guard's lifetime, so
 * a campaign ends at a round boundary with its journal intact instead
 * of dying mid-write.
 */
class InterruptGuard
{
  public:
    InterruptGuard()
    {
        g_interrupted.store(false);
        struct sigaction action = {};
        action.sa_handler = onInterrupt;
        sigemptyset(&action.sa_mask);
        sigaction(SIGINT, &action, &previousInt);
        sigaction(SIGTERM, &action, &previousTerm);
    }
    ~InterruptGuard()
    {
        sigaction(SIGINT, &previousInt, nullptr);
        sigaction(SIGTERM, &previousTerm, nullptr);
    }

  private:
    struct sigaction previousInt = {};
    struct sigaction previousTerm = {};
};

/**
 * Load the JSON file at @p path with @p load. A file that is missing
 * or not JSON, or that fails its check, is reported on @p err as
 * `sharp check` reports it, at its file, line and column, and yields
 * nothing.
 */
template <typename Spec>
std::optional<Spec>
loadSpecFile(const std::string &path, Spec (*load)(const json::Value &),
             std::ostream &err)
{
    check::CheckResult located;
    located.setArtifact(path);
    try {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            located.error("io-error", "cannot read '" + path + "'");
        } else {
            std::ostringstream text;
            text << in.rdbuf();
            return load(json::parse(text.str()));
        }
    } catch (const json::ParseError &problem) {
        located.syntaxError(problem);
    } catch (const check::CheckFailure &failure) {
        for (const check::Diagnostic &finding :
             failure.result().diagnostics())
            located.add(finding);
    }
    err << located.renderText();
    return std::nullopt;
}

/**
 * Shared tail of every `sharp run` variant: run the campaign with
 * interrupt handling wired in, report, save, and map the outcome to an
 * exit code (0 ok, 3 failure-policy abort, 130 interrupted). An empty
 * @p label names the report after the spec that ran.
 */
int
executeRun(const launcher::ReproSpec &spec, launcher::CampaignIo io,
           const ParsedArgs &args, std::ostream &out, std::ostream &err,
           std::string label)
{
    io.interruptFlag = &g_interrupted;
    InterruptGuard guard;
    launcher::CampaignRun run = launcher::runCampaign(spec, io);
    const launcher::LaunchReport &result = run.report;
    if (label.empty())
        label = run.spec.workload.empty() ? run.spec.backendKind
                                          : run.spec.workload;

    if (run.replayed) {
        out << "campaign in '" << io.journalPath
            << "' already completed; replayed ";
    } else {
        out << (io.journalMode == record::JournalMode::Resume
                    ? "resumed to "
                    : "collected ");
    }
    out << result.series.size() << " samples ("
        << result.finalDecision.reason << ")\n\n";
    if (result.series.size() >= 2) {
        auto analysis = report::DistributionReport::analyze(
            label, result.series.values());
        out << analysis.renderMarkdown();
        std::string html = args.get("html");
        if (!html.empty()) {
            report::saveHtml(report::renderHtml(analysis), html);
            out << "wrote " << html << "\n";
        }
    }
    std::string base = args.get("out");
    if (!base.empty()) {
        result.log.save(base);
        out << "\nwrote " << base << ".csv and " << base << ".md\n";
    }

    if (result.aborted) {
        err << "run aborted by the failure policy: "
            << result.finalDecision.reason << "\n";
        return 3;
    }
    if (result.interrupted) {
        if (io.journalPath.empty()) {
            out << "interrupted; no journal was attached, so the "
                   "campaign cannot be resumed (pass --journal next "
                   "time)\n";
        } else {
            out << "interrupted; resume with: sharp run --resume "
                << io.journalPath << "\n";
        }
        return 130;
    }
    return 0;
}

/**
 * Fold the campaign flags into @p spec, over what its spec file set,
 * and run it. A --fault file that fails its check is reported and
 * exits 1.
 */
int
runWithCampaignFlags(launcher::ReproSpec spec, const ParsedArgs &args,
                     std::ostream &out, std::ostream &err,
                     const std::string &label)
{
    args.count("jobs", spec.jobs);
    size_t retries = spec.retry.maxAttempts - 1;
    args.count("retries", retries);
    spec.retry.maxAttempts = retries + 1;
    args.count("max-failures", spec.maxFailures);
    args.number("retry-backoff", spec.retry.backoffBaseSeconds);
    args.number("max-failure-rate", spec.maxFailureRate);
    std::string fault = args.get("fault");
    if (!fault.empty()) {
        std::optional<launcher::FaultSpec> loaded =
            loadSpecFile(fault, &launcher::FaultSpec::fromJson, err);
        if (!loaded)
            return 1;
        spec.fault = *loaded;
        spec.faultEnabled = true;
    }
    launcher::CampaignIo io;
    io.journalPath = args.get("journal");
    return executeRun(spec, io, args, out, err, label);
}

int
cmdRun(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    std::string workload = args.get("workload");
    std::string scenario_path = args.get("scenario");
    if (workload.empty() && scenario_path.empty()) {
        throw UsageError("--workload or --scenario is required (see "
                         "`sharp list`)");
    }
    std::string machine_id = args.get("machine", "machine1");

    launcher::ReproSpec spec;
    if (!scenario_path.empty()) {
        spec.backendKind = "scenario";
        spec.scenario = scenario_path;
    } else {
        spec.backendKind = "sim";
        spec.workload = workload;
        spec.machines = {machine_id};
    }
    spec.experiment.options.maxSamples = 2000;
    // readRuleFlags builds the rule, so a rejected one exits before a
    // journal opens.
    readRuleFlags(args, spec.experiment);
    args.count("day", spec.day);
    args.count("seed", spec.seed);
    spec.experiment.seed = spec.seed; // as ReproSpec::fromJson sets it
    args.count("concurrency", spec.concurrency);
    args.count("max", spec.experiment.options.maxSamples);
    std::string label = scenario_path.empty() ?
                            workload + " @ " + machine_id :
                            scenario_path;
    return runWithCampaignFlags(spec, args, out, err, label);
}

/** `sharp run --config`: a JSON spec file describes the entire run. */
int
cmdRunConfig(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    std::optional<launcher::ReproSpec> spec = loadSpecFile(
        args.get("config"), &launcher::ReproSpec::fromJson, err);
    if (!spec)
        return 1;
    return runWithCampaignFlags(*spec, args, out, err, spec->workload);
}

/** `sharp run --resume`: everything comes from the journal's spec. */
int
cmdRunResume(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    // --resume takes the journal file or the directory holding it.
    std::string journal = args.get("resume");
    launcher::CampaignIo io;
    io.journalPath = util::isDirectory(journal) ? journal + "/journal.jsonl"
                                                : journal;
    io.journalMode = record::JournalMode::Resume;
    return executeRun({}, io, args, out, err, "");
}

int
cmdReproduce(const ParsedArgs &args, std::ostream &out,
             std::ostream &err)
{
    const std::string &path = args.positional[0];
    check::CheckResult findings;
    findings.setArtifact(path);
    record::MetadataDocument doc =
        record::MetadataDocument::parse(util::readFileText(path), findings);
    launcher::ReproSpec spec =
        launcher::reproSpecFromMetadata(doc, std::move(findings));
    // Decisions are bitwise backend-invariant by the simd kernel
    // contract, so a backend mismatch is a provenance note, not an
    // error: surface it for anyone chasing a timing difference.
    if (auto recorded =
            doc.get("Configuration", "repro_simd_backend")) {
        if (*recorded != simd::activeBackendName()) {
            err << "reproduce: warning: metadata was captured with "
                   "SIMD backend '" << *recorded
                << "' but this replay dispatches '"
                << simd::activeBackendName()
                << "'; results are bit-identical by contract, timings "
                   "may differ\n";
        }
    }
    launcher::LaunchReport result = launcher::runCampaign(spec).report;
    out << "reproduced " << result.series.size() << " samples ("
        << result.finalDecision.reason << ")\n";
    auto analysis = report::DistributionReport::analyze(
        doc.getTitle().empty() ? "reproduction" : doc.getTitle(),
        result.series.values());
    out << analysis.renderBrief() << "\n";
    std::string base = args.get("out");
    if (!base.empty()) {
        result.log.save(base);
        out << "wrote " << base << ".csv and " << base << ".md\n";
    }
    return 0;
}

std::vector<double>
loadMetric(const std::string &path, const ParsedArgs &args)
{
    // Baseline capture's row rule: warmup rows and failed attempts
    // never count, with or without --workload.
    compare::CaptureOptions options;
    options.metric = args.get("metric", "execution_time");
    std::string workload = args.get("workload");
    if (workload.empty())
        options.groupBy.clear(); // every row, in row order, as "all"
    compare::FileSamples samples = compare::ingestCsv(path, options);
    return std::move(samples.byScenario[workload.empty() ? "all" : workload]);
}

int
cmdReport(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    auto values = loadMetric(args.positional[0], args);
    if (values.size() < 2) {
        err << "report: fewer than 2 usable values in '"
            << args.positional[0] << "'\n";
        return 1;
    }
    auto analysis = report::DistributionReport::analyze(
        args.positional[0] + " / " +
            args.get("metric", "execution_time"),
        values);
    out << analysis.renderMarkdown();
    std::string html = args.get("html");
    if (!html.empty()) {
        report::saveHtml(report::renderHtml(analysis), html);
        out << "wrote " << html << "\n";
    }
    return 0;
}

/**
 * `sharp baseline capture <runs...> --out PATH`: distill recorded runs
 * into a baseline bundle. Artifact problems (unreadable input, missing
 * metric column, nothing usable) are usage-contract errors: exit 2.
 */
int
cmdBaseline(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    if (args.positional[0] != "capture")
        throw UsageError("expected `sharp baseline capture RUNS...`");
    std::vector<std::string> inputs(args.positional.begin() + 1,
                                    args.positional.end());
    std::string out_path = args.get("out");
    if (out_path.empty())
        throw UsageError("--out PATH is required");
    compare::CaptureOptions options;
    options.metric = args.get("metric", options.metric);
    options.groupBy = args.get("group-by", options.groupBy);
    args.count("jobs", options.jobs);

    try {
        compare::BaselineBundle bundle =
            compare::captureBaseline(inputs, options);
        std::string file = compare::saveBundle(bundle, out_path);
        size_t samples = 0;
        for (const auto &scenario : bundle.scenarios)
            samples += scenario.sorted.size();
        out << "captured " << bundle.scenarios.size() << " scenario"
            << (bundle.scenarios.size() == 1 ? "" : "s") << " ("
            << samples << " samples; excluded "
            << bundle.excludedWarmup << " warmup, "
            << bundle.excludedFailures << " failed)\n";
        out << "wrote " << file << "\n";
        return 0;
    } catch (const std::exception &problem) {
        err << "baseline capture: " << problem.what() << "\n";
        return 2;
    }
}

/**
 * The `--against` form of `sharp compare`: capture the candidate runs
 * with the baseline bundle's own metric/grouping, compare, render.
 * Exit contract: 0 no regression, 1 investigate, 2 usage or artifact
 * error — artifact problems are caught here (not left to runCli's
 * catch-all, which exits 1) so a malformed bundle cannot masquerade as
 * a regression.
 */
int
cmdCompareAgainst(const ParsedArgs &args, std::ostream &out,
                  std::ostream &err)
{
    std::string format = args.get("format", "text");
    compare::CompareTolerances tolerances;
    args.number("median-ratio", tolerances.medianRatio);
    args.number("median-slack", tolerances.medianSlack);
    args.number("ks-limit", tolerances.ksLimit);
    args.number("cv-limit", tolerances.cvLimit);
    args.number("level", tolerances.level);
    args.count("resamples", tolerances.resamples);
    args.count("seed", tolerances.seed);
    compare::CaptureOptions capture;
    args.count("jobs", capture.jobs);

    try {
        compare::BaselineBundle baseline =
            compare::loadBundle(args.get("against"));
        // The bundle dictates the comparison currency; --metric only
        // overrides it explicitly (and a mismatch is then an error).
        capture.metric = args.get("metric", baseline.metric);
        if (!baseline.groupBy.empty())
            capture.groupBy = baseline.groupBy;
        compare::BaselineBundle candidate =
            compare::captureBaseline(args.positional, capture);

        compare::CompareReport report =
            compare::compareBundles(baseline, candidate, tolerances);
        if (format == "json")
            out << json::writePretty(report.toJson());
        else
            out << report.renderText();
        std::string report_file = args.get("out");
        if (!report_file.empty()) {
            json::writeFile(report.toJson(), report_file);
            if (format == "text")
                out << "wrote " << report_file << "\n";
        }
        return report.exitCode();
    } catch (const std::exception &problem) {
        err << "compare: " << problem.what() << "\n";
        return 2;
    }
}

int
cmdCompare(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    auto a = loadMetric(args.positional[0], args);
    auto b = loadMetric(args.positional[1], args);
    if (a.size() < 2 || b.size() < 2) {
        err << "compare: fewer than 2 usable values per file\n";
        return 1;
    }
    auto analysis = report::ComparisonReport::analyze(
        args.positional[0], a, args.positional[1], b);
    out << analysis.renderMarkdown();
    std::string html = args.get("html");
    if (!html.empty()) {
        report::saveHtml(report::renderHtml(analysis), html);
        out << "wrote " << html << "\n";
    }
    return 0;
}

int
cmdMicro(const ParsedArgs &, std::ostream &out, std::ostream &)
{
    util::TextTable table({"probe", "measures", "unit"});
    for (const auto &probe : micro::microRegistry())
        table.addRow({probe.name, probe.description, probe.unit});
    out << table.render();
    out << "run one with: sharp micro <probe>\n";
    return 0;
}

int
cmdMicroProbe(const ParsedArgs &args, std::ostream &out, std::ostream &)
{
    const auto &probe = micro::microByName(args.positional[0]);
    core::ExperimentConfig config;
    readRuleFlags(args, config);

    launcher::LaunchOptions options;
    options.warmupRounds = 3;
    options.primaryMetric = "value";
    options.maxSamples = 500;
    args.count("jobs", options.jobs);
    args.count("max", options.maxSamples);

    auto backend = std::make_shared<micro::MicroBackend>(probe);
    launcher::Launcher l(backend, config.makeRule(), options);
    auto report = l.launch();

    out << probe.name << " (" << probe.description << "): "
        << report.series.size() << " measurements ("
        << report.finalDecision.reason << ")\n";
    auto analysis = report::DistributionReport::analyze(
        probe.name + " [" + probe.unit + "]",
        report.series.values());
    out << analysis.renderMarkdown();
    return 0;
}

int
cmdSuite(const ParsedArgs &args, std::ostream &out, std::ostream &)
{
    std::string machine = args.get("machine", "machine1");
    core::ExperimentConfig config;
    config.options.maxSamples = 1000;
    size_t jobs = 1;
    size_t retries = 0;
    readRuleFlags(args, config);
    args.count("max", config.options.maxSamples);
    args.count("seed", config.seed);
    args.count("jobs", jobs);
    args.count("retries", retries);
    launcher::RetryPolicy retry;
    retry.maxAttempts = retries + 1;

    std::string scenarios_dir = args.get("scenarios");
    std::vector<launcher::SuiteEntry> entries;
    if (!scenarios_dir.empty()) {
        entries = launcher::scenarioSuite(scenarios_dir);
        if (entries.empty()) {
            throw UsageError("no scenario files (*.json) in '" +
                             scenarios_dir + "'");
        }
    } else {
        entries = launcher::rodiniaSuite(machine);
    }
    auto suite = launcher::runSuite(entries, config, 0, jobs, retry);

    util::TextTable table({"workload", "runs", "mean", "median",
                           "stopped by"});
    for (const auto &outcome : suite.outcomes) {
        if (outcome.failed) {
            table.addRow({outcome.entry.workload, "-", "-", "-",
                          "error: " + outcome.error});
            continue;
        }
        auto values = outcome.series.values();
        table.addRow(
            {outcome.entry.workload,
             std::to_string(outcome.series.size()),
             util::formatDouble(stats::mean(values), 3),
             util::formatDouble(stats::median(values), 3),
             outcome.ruleFired ? config.ruleName : "max-samples"});
    }
    out << table.render();
    out << "total runs: " << suite.totalRuns << " ("
        << util::formatDouble(
               suite.savedVersusFixed(config.options.maxSamples) *
                   100.0,
               1)
        << "% saved vs fixed-" << config.options.maxSamples << ")\n";
    return suite.failures == 0 ? 0 : 1;
}

int
cmdGate(const ParsedArgs &args, std::ostream &out, std::ostream &)
{
    auto baseline = loadMetric(args.positional[0], args);
    auto candidate = loadMetric(args.positional[1], args);

    report::GateConfig config;
    args.number("slowdown", config.maxSlowdown);
    args.number("ks", config.maxKsDistance);
    args.number("alpha", config.alpha);
    if (args.has("larger-is-better"))
        config.largerIsWorse = false;

    report::GateResult result =
        report::evaluateGate(baseline, candidate, config);
    out << result.verdict << "\n";
    out << "median change: "
        << util::formatDouble(result.medianChange * 100.0, 2)
        << "%  KS: " << util::formatDouble(result.ksDistance, 4)
        << "  Mann-Whitney p: "
        << util::formatDouble(result.mannWhitneyP, 5) << "\n";
    return result.pass ? 0 : 1;
}

int
cmdCalibrate(const ParsedArgs &args, std::ostream &out,
             std::ostream &err)
{
    calibrate::CalibrationConfig config;
    args.count("seed", config.baseSeed);
    args.count("seeds", config.seedsPerCell);
    args.count("max", config.maxSamples);
    args.count("truth", config.truthSamples);
    args.count("jobs", config.jobs);
    args.list("rules", config.rules);
    args.list("distributions", config.distributions);
    config.recordTimings = args.has("timings");

    // A baseline that cannot gate is a usage error before the sweep,
    // not a gate failure after it.
    std::optional<json::Value> baseline;
    std::string baseline_path = args.get("baseline");
    if (!baseline_path.empty()) {
        baseline = loadSpecFile<json::Value>(
            baseline_path,
            [](const json::Value &doc) {
                check::CheckResult result;
                calibrate::checkBaseline(doc, result);
                check::throwIfErrors(std::move(result));
                return doc;
            },
            err);
        if (!baseline)
            return 2;
    }

    // Scenario files feed the sweep as extra distributions: the meta
    // rule's delegation is re-tuned against exactly the nonstationary
    // streams the scenario library ships. Trace scenarios are skipped
    // — a recorded stream has no generator to draw ground truth from.
    std::string scenarios_dir = args.get("scenarios");
    if (!scenarios_dir.empty()) {
        size_t traces = 0;
        for (const auto &entry : launcher::scenarioSuite(scenarios_dir)) {
            sim::ScenarioSpec scenario = sim::loadScenario(entry.scenario);
            if (scenario.isTrace())
                ++traces;
            else
                config.extraDistributions.push_back(
                    sim::scenarioDistribution(scenario));
        }
        if (traces > 0) {
            out << "note: skipped " << traces << " trace scenario"
                << (traces == 1 ? "" : "s")
                << " (no generator to calibrate against)\n";
        }
    }

    calibrate::CalibrationResult result =
        runCalibration(std::move(config));
    json::Value summary = result.summaryJson();

    out << calibrate::renderSummary(summary, result.cells.size());

    std::string base = args.get("out");
    if (!base.empty()) {
        result.toCsv().save(base + ".csv");
        json::writeFile(summary, base + ".json");
        out << "wrote " << base << ".csv and " << base << ".json\n";
    }
    std::string write_baseline = args.get("write-baseline");
    if (!write_baseline.empty()) {
        json::writeFile(summary, write_baseline);
        out << "wrote baseline " << write_baseline << "\n";
    }
    if (baseline) {
        calibrate::GateReport gate =
            calibrate::compareToBaseline(*baseline, summary);
        out << gate.render();
        return gate.pass ? 0 : 1;
    }
    return 0;
}

int
cmdWorkflow(const ParsedArgs &args, std::ostream &out,
            std::ostream &err)
{
    std::ifstream in(args.positional[0]);
    if (!in) {
        err << "workflow: cannot open '" << args.positional[0] << "'\n";
        return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    workflow::Workflow wf =
        workflow::parseServerlessWorkflowText(buf.str());
    out << "workflow '" << wf.name << "' with " << wf.graph.size()
        << " tasks\n";

    std::string makefile = args.get("makefile");
    if (!makefile.empty()) {
        workflow::writeMakefile(wf.graph, makefile, wf.id);
        out << "wrote " << makefile << "\n";
    } else if (!args.has("execute")) {
        out << workflow::renderMakefile(wf.graph, wf.id);
    }

    if (args.has("execute")) {
        workflow::Executor executor(workflow::shellRunner(120.0));
        auto report = executor.execute(wf.graph);
        for (const auto &task : report.executionOrder) {
            out << "  " << task << ": "
                << workflow::taskStatusName(report.status.at(task))
                << "\n";
        }
        out << "workflow "
            << (report.success ? "succeeded" : "failed") << "\n";
        return report.success ? 0 : 1;
    }
    return 0;
}

/**
 * `sharp check <paths...>`: the static analyzer. Never executes
 * anything; reads each artifact, reports every diagnostic, and exits
 * with the CheckResult contract (0 clean, 1 warnings only, 2 errors).
 */
int
cmdCheck(const ParsedArgs &args, std::ostream &out, std::ostream &)
{
    std::string format = args.get("format", "text");

    // Campaign mode: one state directory, audited as a whole (every
    // artifact deep-checked plus the cross-artifact lints).
    if (args.has("campaign")) {
        const std::string &dir = args.positional.front();
        check::CheckResult result;
        check::checkCampaignDir(dir, result);
        if (format == "json") {
            out << json::writePretty(result.toJson()) << "\n";
        } else {
            out << result.renderText();
            out << "campaign audit of " << dir << ": "
                << result.errorCount() << " error"
                << (result.errorCount() == 1 ? "" : "s") << ", "
                << result.warningCount() << " warning"
                << (result.warningCount() == 1 ? "" : "s") << "\n";
        }
        return result.exitCode();
    }

    size_t skippedFiles = 0;
    std::vector<std::string> paths =
        check::expandArtifactPaths(args.positional, skippedFiles);
    if (paths.empty() && skippedFiles == 0)
        throw UsageError("no artifacts found under the given paths");

    check::CheckResult total;
    size_t clean = 0;
    for (const auto &path : paths) {
        check::CheckResult result;
        check::ArtifactKind kind =
            check::checkArtifactFile(path, result);
        if (format == "text") {
            out << result.renderText();
            // Notes are informational: an artifact with only notes
            // is still ok, as its exit code says; a non-artifact's
            // note says all there is.
            if (result.exitCode() == 0 &&
                kind != check::ArtifactKind::Unknown) {
                out << path << ": "
                    << check::artifactKindName(kind) << ": ok\n";
            }
        }
        if (result.clean())
            ++clean;
        total.merge(result);
    }

    if (skippedFiles > 0) {
        check::CheckResult note;
        note.report(check::Severity::Note, json::Location{},
                    "skipped-files",
                    "skipped " + std::to_string(skippedFiles) +
                        " non-artifact file(s) (not .json/.jsonl/.md/.csv)");
        if (format == "text")
            out << note.renderText();
        total.merge(note);
    }

    if (format == "json") {
        json::Value summary = total.toJson();
        summary.set("artifacts", paths.size());
        summary.set("clean", clean);
        out << json::writePretty(summary) << "\n";
    } else {
        out << "checked " << paths.size() << " artifact"
            << (paths.size() == 1 ? "" : "s") << ": "
            << total.errorCount() << " error"
            << (total.errorCount() == 1 ? "" : "s") << ", "
            << total.warningCount() << " warning"
            << (total.warningCount() == 1 ? "" : "s") << "\n";
    }
    return total.exitCode();
}

int
cmdServe(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    serve::ServeOptions options;
    options.socketPath = args.get("socket");
    options.stateDir = args.get("state-dir");
    if (options.socketPath.empty() || options.stateDir.empty())
        throw UsageError("--socket and --state-dir are required");
    args.count("shards", options.shards);
    args.count("max-queued", options.maxQueuedPerTenant);
    args.count("max-failovers", options.maxFailovers);
    args.number("round-deadline", options.roundDeadlineSeconds);
    return serve::runDaemon(options, out, err);
}

/** The daemon socket every `client` form needs. */
std::string
clientSocket(const ParsedArgs &args)
{
    std::string socket = args.get("socket");
    if (socket.empty())
        throw UsageError("--socket is required");
    return socket;
}

/** Send @p message to the daemon at --socket and print its answer. */
int
sendRequest(const ParsedArgs &args, const json::Value &message,
            std::ostream &out, std::ostream &err)
{
    std::string socket = clientSocket(args);
    json::Value response;
    try {
        response = serve::clientRequest(socket, message);
    } catch (const std::exception &problem) {
        err << "client: " << problem.what() << "\n";
        return 1; // unreachable daemon is retryable by definition
    }
    out << json::writePretty(response) << "\n";
    return serve::clientExitCode(response);
}

int
cmdClient(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    const std::string &op = args.positional[0];
    json::Value message = json::Value::makeObject();
    message.set("op", op);
    if (op == "results" || op == "cancel") {
        if (args.positional.size() < 2)
            throw UsageError(op + " needs a campaign id");
        message.set("id", args.positional[1]);
    } else if (op == "status") {
        if (args.positional.size() > 1)
            message.set("id", args.positional[1]);
    } else if (op != "drain" && op != "ping") {
        throw UsageError("unknown operation '" + op + "'");
    }
    return sendRequest(args, message, out, err);
}

int
cmdClientSubmit(const ParsedArgs &args, std::ostream &out,
                std::ostream &err)
{
    // A file that cannot be read is no daemon's doing: exit 2, not the
    // retryable 1.
    std::optional<json::Value> spec = loadSpecFile<json::Value>(
        args.positional[1], [](const json::Value &doc) { return doc; },
        err);
    if (!spec)
        return 2;
    json::Value message = json::Value::makeObject();
    message.set("op", "submit");
    message.set("tenant", args.get("tenant", "default"));
    message.set("spec", std::move(*spec));
    return sendRequest(args, message, out, err);
}

int
cmdClientWait(const ParsedArgs &args, std::ostream &out, std::ostream &)
{
    double timeout = 300.0;
    args.number("timeout", timeout);
    json::Value response = serve::waitForCampaign(
        clientSocket(args), args.positional[1], timeout);
    out << json::writePretty(response) << "\n";
    if (response.getBool("ok", false)) {
        const json::Value *campaign = response.find("campaign");
        std::string state = campaign ? campaign->getString("state", "") : "";
        return state == "done" ? 0 : 2;
    }
    return serve::clientExitCode(response);
}

/** @p groups, one after another. */
std::vector<Flag>
join(std::initializer_list<std::vector<Flag>> groups)
{
    std::vector<Flag> flags;
    for (const std::vector<Flag> &group : groups)
        flags.insert(flags.end(), group.begin(), group.end());
    return flags;
}

} // anonymous namespace

std::string
ParsedArgs::get(const std::string &key, const std::string &fallback) const
{
    auto it = flags.find(key);
    return it != flags.end() ? it->second : fallback;
}

bool
ParsedArgs::has(const std::string &key) const
{
    return flags.count(key) > 0;
}

void
ParsedArgs::number(const char *key, double &target) const
{
    if (has(key))
        target = std::stod(get(key));
}

void
ParsedArgs::list(const char *key, std::vector<std::string> &target) const
{
    for (const auto &name : util::split(get(key), ',')) {
        std::string trimmed = util::trim(name);
        if (!trimmed.empty())
            target.push_back(trimmed);
    }
}

ParsedArgs
parseArgs(const std::vector<std::string> &argv)
{
    ParsedArgs parsed;
    size_t i = 0;
    if (!argv.empty() && !util::startsWith(argv[0], "--")) {
        parsed.command = argv[0];
        i = 1;
    }
    while (i < argv.size()) {
        const std::string &token = argv[i++];
        if (!util::startsWith(token, "--")) {
            parsed.positional.push_back(token);
            continue;
        }
        std::string key = token.substr(2);
        if (key.empty())
            throw UsageError("empty flag name");
        // A value follows unless the flag is a switch, or the next
        // token is another flag or the end of the line.
        bool valued = key != "help" && i < argv.size() &&
                      !util::startsWith(argv[i], "--");
        for (const Form &form : forms()) {
            if (form.command != parsed.command)
                continue;
            const Flag *flag = findFlag(form, key);
            if (flag && flag->kind == FlagKind::Switch)
                valued = false;
        }
        parsed.flags[key] = valued ? argv[i++] : "";
    }
    return parsed;
}

const Form &
selectForm(const ParsedArgs &args)
{
    const Form *chosen = nullptr;
    std::vector<std::string> known;
    for (const Form &form : forms()) {
        if (args.command != form.command)
            continue;
        if (!chosen || (!*chosen->selector && picks(args, form)))
            chosen = &form;
        for (const Flag &flag : form.flags)
            known.push_back(std::string("--") + flag.name);
    }
    if (!chosen)
        throw UsageError("unknown command (try `sharp help`)");
    for (const auto &[key, value] : args.flags) {
        std::string name = "--" + key;
        const Flag *flag = findFlag(*chosen, key);
        if (flag && flag->kind != FlagKind::Switch && value.empty())
            throw UsageError(name + " needs a value");
        if (flag || key == "help")
            continue;
        if (std::find(known.begin(), known.end(), name) != known.end()) {
            throw UsageError(name + " is not read by `sharp " +
                             synopsis(*chosen) + "`" + chosen->unread);
        }
        std::string near = check::closestName(name, known);
        throw UsageError("unknown flag " + name +
                         (near.empty() ? "" : " (did you mean " + near +
                                                  "?)"));
    }
    size_t needed = 0;
    for (const std::string &word : util::split(chosen->operands, ' ')) {
        if (!word.empty() && word[0] != '[')
            ++needed;
    }
    if (args.positional.size() < needed)
        throw UsageError("expected `sharp " + synopsis(*chosen) + "`");
    return *chosen;
}

const std::vector<Form> &
forms()
{
    using enum FlagKind;
    using enum Range;
    static const std::vector<Flag> metric = {
        {"metric", Text, "NAME", "column to analyze (default execution_time)"},
        {"workload", Text, "NAME", "only the rows of this workload"},
    };
    static const std::vector<Flag> html = {
        {"html", Text, "FILE", "write an HTML report"},
    };
    static const std::vector<Flag> output = join({
        {{"out", Text, "BASE", "write BASE.csv and BASE.md"}}, html});
    static const std::vector<Flag> campaign = {
        {"jobs", Count, "N", "worker threads (recorded in metadata)", 1},
        {"retries", Count, "N", "retry each failed run up to N times"},
        {"retry-backoff", Number, "S", "base retry delay in seconds", 0,
         NonNegative},
        {"max-failures", Count, "N", "abort after exactly N failed runs"},
        {"max-failure-rate", Number, "X", "abort past this failed fraction",
         0, Fraction},
        {"fault", Text, "FILE.json", "inject FILE's seeded fault schedule"},
        {"journal", Text, "FILE", "append each round to FILE (see --resume)"},
    };
    static const Flag socket = {"socket", Text, "PATH",
                                "daemon socket (required)"};
    static const std::vector<Form> table = {
        {"list", "", "", "show benchmarks, machines, stopping rules",
         cmdList, {}},
        {"run", "", "", "run one experiment on the simulated testbed",
         cmdRun,
         join({{{"workload", Text, "NAME", "Rodinia benchmark (see `list`)"},
                {"scenario", Text, "FILE.json", "scenario workload instead"},
                {"machine", Text, "ID", "machine1|2|3 (default machine1)"},
                {"max", Count, "N", "sample cap (default 2000)", 2},
                {"day", Count, "D", "simulated day"},
                {"seed", Count, "S", "environment seed"},
                {"concurrency", Count, "C", "parallel instances per round",
                 1}},
               ruleFlags(), campaign, output})},
        {"run", "", "config", "run the whole spec in a JSON file",
         cmdRunConfig,
         join({{{"config", Text, "FILE.json", ""}}, campaign, output}),
         "; set it in the spec"},
        {"run", "", "resume", "resume from a journal or its directory",
         cmdRunResume, join({{{"resume", Text, "PATH", ""}}, output}),
         "; the journal holds the spec"},
        {"reproduce", "FILE.md", "", "re-run an experiment from its metadata",
         cmdReproduce, {output.front()}},
        {"suite", "", "", "run the Rodinia grid on one machine", cmdSuite,
         join({{{"machine", Text, "ID", "machine to run (default machine1)"},
                {"max", Count, "N", "sample cap (default 1000)", 2},
                {"seed", Count, "S", "environment seed"},
                {"jobs", Count, "N", "parallel entries (same output)", 1},
                {"retries", Count, "N", "retry failed runs in every entry"},
                {"scenarios", Text, "DIR", "run DIR's scenarios instead"}},
               ruleFlags(5)})},
        {"micro", "", "", "list the microbenchmark probes", cmdMicro, {}},
        {"micro", "PROBE", "probe", "run one microbenchmark probe",
         cmdMicroProbe,
         join({{{"max", Count, "N", "sample cap (default 500)", 2},
                {"jobs", Count, "N", "worker threads", 1}},
               ruleFlags(2)})},
        {"report", "FILE.csv", "", "analyze a recorded run", cmdReport,
         join({metric, html})},
        {"compare", "A.csv B.csv", "", "compare two recorded runs",
         cmdCompare, join({metric, html})},
        {"baseline", "capture RUNS...", "",
         "distill recorded runs into a baseline bundle", cmdBaseline,
         {{"out", Text, "PATH", "bundle file or directory (required)"},
          {"metric", Text, "NAME", "metric column (default execution_time)"},
          {"group-by", Text, "COL", "scenario key column (default workload)"},
          {"jobs", Count, "N", "parse inputs in parallel", 1}}},
        {"compare", "RUNS...", "against",
         "gate candidate runs against a baseline\n"
         "(exit: 0 no regression, 1 investigate, 2 error)",
         cmdCompareAgainst,
         {{"against", Text, "BUNDLE", ""},
          {"format", Choice, "text|json", "report format (default text)"},
          {"out", Text, "FILE", "also write the JSON report to FILE"},
          {"metric", Text, "NAME", "override the bundle's metric"},
          {"median-ratio", Number, "X", "median may grow to baseline*X"},
          {"median-slack", Number, "X", "additive slack in metric units"},
          {"ks-limit", Number, "X", "KS limit when the median degraded"},
          {"cv-limit", Number, "X", "candidate %CV ceiling"},
          {"level", Number, "X", "bootstrap confidence level"},
          {"resamples", Count, "N", "bootstrap resamples per scenario"},
          {"seed", Count, "S", "bootstrap base seed"},
          {"jobs", Count, "N", "capture the candidates in parallel", 1}}},
        {"gate", "BASE.csv CAND.csv", "", "regression gate between two runs",
         cmdGate,
         join({metric,
               {{"slowdown", Number, "X", "allowed relative median slowdown"},
                {"ks", Number, "X", "allowed KS distance of the shapes"},
                {"alpha", Number, "X", "Mann-Whitney significance level"},
                {"larger-is-better", Switch, "", "larger is better"}}})},
        {"calibrate", "", "", "sweep the rules over the tuning set (§IV-c)",
         cmdCalibrate,
         {{"seed", Count, "S", "base seed (default 1)"},
          {"seeds", Count, "K", "repetitions per cell (default 9)", 1},
          {"max", Count, "N", "sample cap per cell (default 800)", 2},
          {"truth", Count, "N", "ground-truth sample size (default 8192)", 2},
          {"jobs", Count, "N", "worker threads (same output for any N)", 1},
          {"rules", Text, "a,b,c", "subset of rules (default: all)"},
          {"distributions", Text, "x,y", "subset of distributions (all)"},
          {"scenarios", Text, "DIR", "add DIR's generator scenarios"},
          {"out", Text, "BASE", "write BASE.csv and BASE.json"},
          {"write-baseline", Text, "FILE", "write the summary as a baseline"},
          {"baseline", Text, "FILE", "gate against a baseline (fail: exit 1)"},
          {"timings", Switch, "", "add a wall_ms CSV column (not stable)"}}},
        {"workflow", "SPEC.json", "", "translate a serverless workflow",
         cmdWorkflow,
         {{"makefile", Text, "FILE", "write the Makefile"},
          {"execute", Switch, "", "run the DAG natively"}}},
        {"check", "PATH...", "", "statically validate artifacts (exit: 0\n"
                                 "clean, 1 warnings only, 2 errors)",
         cmdCheck,
         {{"campaign", Switch, "", "audit a `sharp serve` state directory"},
          {"format", Choice, "text|json", "output format (default text)"}}},
        {"serve", "", "", "run the supervised campaign daemon\n"
                          "(SIGTERM drains and exits 130; campaigns\n"
                          "resume byte-identically on restart)",
         cmdServe,
         {{"socket", Text, "PATH", "unix socket to listen on (required)"},
          {"state-dir", Text, "DIR", "state (required; a restart resumes)"},
          {"shards", Count, "N", "concurrent worker shards (default 2)", 1},
          {"max-queued", Count, "N", "per-tenant campaign cap (default 8)", 1},
          {"round-deadline", Number, "S", "heartbeat deadline (default 60)",
           0, Positive},
          {"max-failovers", Count, "N", "failovers before a campaign fails"}}},
        {"client", "OP [ID]", "", "talk to a daemon: status [ID],\n"
                                  "results ID, cancel ID, drain or ping\n"
                                  "(exit: 0 ok, 1 retryable rejection or\n"
                                  "unreachable daemon, 2 non-retryable)",
         cmdClient, {socket}},
        {"client", "submit SPEC.json", "submit", "queue a campaign spec",
         cmdClientSubmit,
         join({{socket},
               {{"tenant", Text, "NAME", "tenant (default default)"}}})},
        {"client", "wait ID", "wait", "poll until the campaign ends\n"
                                      "(exit: 0 done, 2 failed, cancelled\n"
                                      "or not done in time)",
         cmdClientWait,
         join({{socket},
               {{"timeout", Number, "S", "seconds to poll (default 300)", 0,
                 Positive}}})},
        {"help", "", "", "this text", cmdHelp, {}},
    };
    return table;
}

int
runCli(const std::vector<std::string> &argv, std::ostream &out,
       std::ostream &err)
{
    ParsedArgs args;
    try {
        args = parseArgs(argv);
        if (args.command.empty() || args.has("help")) {
            std::string help = usage(args.command);
            if (!help.empty()) {
                out << help;
                return args.has("help") ? 0 : 2;
            }
        }
        const Form &form = selectForm(args);
        checkValues(args, form);
        return form.run(args, out, err);
    } catch (const UsageError &problem) {
        err << (args.command.empty() ? "sharp" : args.command) << ": "
            << problem.what() << "\n";
        return 2;
    } catch (const check::CheckFailure &failure) {
        // A bad journal or metadata file, as `sharp check` reports it.
        err << failure.result().renderText();
        return 1;
    } catch (const std::exception &ex) {
        err << "error: " << ex.what() << "\n";
        return 1;
    }
}

} // namespace cli
} // namespace sharp
