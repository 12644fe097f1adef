#include "cli/cli.hh"

#include <atomic>
#include <csignal>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>

#include <sys/stat.h>

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
        const std::string &token = argv[i];
        if (util::startsWith(token, "--")) {
            std::string key = token.substr(2);
            if (key.empty())
                throw std::invalid_argument("empty flag name");
            // A value follows unless the next token is another flag or
            // the end of the line.
            if (i + 1 < argv.size() &&
                !util::startsWith(argv[i + 1], "--")) {
                parsed.flags[key] = argv[i + 1];
                i += 2;
            } else {
                parsed.flags[key] = "";
                ++i;
            }
        } else {
            parsed.positional.push_back(token);
            ++i;
        }
    }
    return parsed;
}

namespace
{

const char *const usageText = R"(usage: sharp <command> [options]

commands:
  list                         show benchmarks, machines, stopping rules
  run                          run one experiment on the simulated testbed
      --config FILE.json       full run spec from a JSON file, or:
      --scenario FILE.json     scenario-library workload (nonstationary
                               family or recorded-trace replay), or:
      --workload NAME          Rodinia benchmark (required)
      --machine ID             machine1|machine2|machine3 (default machine1)
      --rule NAME              stopping rule (default ks)
      --threshold X            rule threshold
      --max N                  sample cap (default 2000)
      --day D --seed S         environment controls
      --concurrency C          parallel instances per round
      --jobs N                 execution-layer worker threads (default 1;
                               recorded in metadata for reproduction)
      --retries N              retry failed runs up to N times each
      --retry-backoff S        base retry delay in seconds (doubles per
                               retry, deterministic seeded jitter)
      --max-failures N         abort after exactly N failed runs
      --max-failure-rate X     abort when the failed fraction exceeds X
      --fault FILE.json        wrap the backend in the seeded
                               fault-injection schedule from FILE
      --journal FILE           append every completed round to FILE
                               (fsync'd; enables --resume after a crash)
      --resume PATH            resume a killed campaign from its journal
                               (file, or a directory holding
                               journal.jsonl); finishes with the same
                               samples the uninterrupted run collects
      --out BASE               write BASE.csv + BASE.md
      --html FILE              write an HTML report
  reproduce FILE.md            re-run an experiment from its metadata
  suite                        run the Rodinia grid on one machine
      --machine ID --rule NAME --threshold X --max N --seed S
      --scenarios DIR          run every scenario file in DIR instead
                               of the Rodinia grid
      --retries N              retry failed runs inside every entry
      --jobs N                 run suite entries in parallel (results
                               are identical for any N)
  micro [PROBE]                list or run microbenchmark probes
      --rule NAME --threshold X --max N --jobs N
  report FILE.csv              analyze a recorded run
      --metric NAME            column to analyze (default execution_time)
      --workload NAME          filter rows by workload
      --html FILE              write an HTML report
  compare A.csv B.csv          compare two recorded runs
      --metric NAME --html FILE
  baseline capture RUNS...     distill recorded runs (tidy CSVs or
                               .jsonl journals) into a baseline bundle
                               for `compare --against`; byte-identical
                               for any --jobs
      --out PATH               bundle file (.json) or directory (required)
      --metric NAME            metric column (default execution_time)
      --group-by COL           scenario key column (default workload)
      --jobs N                 parse inputs in parallel
  compare RUNS... --against B  gate candidate runs against a baseline
                               bundle: per-scenario KS distance,
                               quantile shifts, bootstrap speedup CI
                               (a median regression only fails when the
                               whole CI confirms it), and a %CV
                               reproducibility verdict
      --format text|json       report format (default text)
      --out FILE               also write the JSON report to FILE
      --median-ratio X         median may grow to baseline*X (+ slack)
      --median-slack X         additive slack in metric units
      --ks-limit X --cv-limit X
      --level X --resamples N --seed S
      (exit: 0 no regression, 1 investigate, 2 usage/artifact error)
  gate BASE.csv CAND.csv       regression gate between two runs
      --slowdown X --ks X --alpha X [--larger-is-better]
  calibrate                    sweep stopping rules over the synthetic
                               tuning distributions (paper §IV-c)
      --seed S                 base seed (default 1)
      --seeds K                repetitions per cell (default 9)
      --max N                  sample cap per cell (default 800)
      --truth N                ground-truth sample size (default 8192)
      --jobs N                 worker threads (output identical for any N)
      --rules a,b,c            subset of rules (default: all registered)
      --distributions x,y      subset of the tuning set (default: the
                               ten synthetics + five nonstationary
                               scenario families)
      --scenarios DIR          add DIR's generator scenarios to the
                               sweep (trace scenarios are skipped)
      --out BASE               write BASE.csv and BASE.json
      --write-baseline FILE    write the summary JSON as a new baseline
      --baseline FILE          compare against a baseline; exit 1 on fail
      --timings                add a wall_ms CSV column (not byte-stable)
  workflow SPEC.json           translate a serverless workflow
      --makefile FILE          write the Makefile
      --execute                run the DAG natively
  check PATH...                statically validate artifacts without
                               running anything: run/fault/retry specs,
                               experiment configs, workflows, journals,
                               calibration baselines, scenarios,
                               metadata, queue journals, daemon state;
                               a directory expands to its
                               .json/.jsonl/.md entries (non-recursive;
                               other files fold into one note)
      --campaign DIR           audit a `sharp serve` state directory
                               as a whole: every artifact deep-checked
                               plus cross-artifact lints (queue vs run
                               journals vs results vs metadata vs
                               daemon config)
      --format text|json       diagnostic output format (default text)
      (exit: 0 clean, 1 warnings only, 2 errors)
  serve                        run the campaign daemon: accept run
                               specs over a unix socket, execute them
                               on supervised worker shards with
                               heartbeat/deadline watchdog, journal
                               every transition (crash-safe, resumable)
      --socket PATH            unix socket to listen on (required)
      --state-dir DIR          queue journal, daemon state, campaign
                               results (required; restart on the same
                               directory resumes everything)
      --shards N               concurrent worker shards (default 2)
      --max-queued N           per-tenant cap on queued + running
                               campaigns (default 8)
      --round-deadline S       seconds without a heartbeat before the
                               watchdog kills a shard (default 60)
      --max-failovers N        failovers per campaign before it fails
                               terminally (default 3)
      (SIGTERM drains gracefully and exits 130; campaigns resume
      byte-identically on restart)
  client OP [ARG]              talk to a running daemon
      --socket PATH            daemon socket (required)
      submit SPEC.json         submit a run spec [--tenant NAME]
      status [ID]              one campaign, or all + draining flag
      results ID               result paths + CSV of a done campaign
      cancel ID                cancel a queued or running campaign
      drain                    ask the daemon to drain and exit
      ping                     daemon liveness + pid
      wait ID                  poll until ID reaches a terminal state
                               [--timeout S, default 300]
      (exit: 0 ok, 1 retryable rejection or unreachable daemon,
      2 non-retryable rejection)
  help                         this text

exit codes: 0 ok, 1 error (compare --against: regression to
            investigate; check: warnings only), 2 usage or malformed
            artifact, 3 aborted by the failure policy, 130 interrupted
            (campaign resumable with run --resume)
)";

/**
 * Parse the unsigned integer flag --@p key (>= @p minimum) into
 * @p target. Returns false (and reports) on bad input; leaves
 * @p target untouched when the flag is absent.
 */
template <typename T>
bool
parseCount(const ParsedArgs &args, std::ostream &err, const char *cmd,
           const char *key, uint64_t minimum, T &target)
{
    std::string value = args.get(key);
    if (value.empty())
        return true;
    auto parsed = util::parseUint64(value);
    if (!parsed || *parsed < minimum ||
        *parsed > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
        err << cmd << ": --" << key << " must be an integer >= "
            << minimum << "\n";
        return false;
    }
    target = static_cast<T>(*parsed);
    return true;
}

int
cmdList(std::ostream &out)
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

/** --resume accepts the journal file or the directory holding it. */
std::string
resolveJournalPath(const std::string &path)
{
    struct stat st = {};
    if (stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode))
        return path + "/journal.jsonl";
    return path;
}

/**
 * Load the JSON spec file at @p path with @p load. A spec that fails
 * its check is reported on @p err as `sharp check` reports it, at its
 * file, line and column, and yields nothing.
 */
template <typename Spec>
std::optional<Spec>
loadSpecFile(const std::string &path, Spec (*load)(const json::Value &),
             std::ostream &err)
{
    try {
        return load(json::parseFile(path));
    } catch (const check::CheckFailure &failure) {
        check::CheckResult located;
        located.setArtifact(path);
        for (const check::Diagnostic &finding :
             failure.result().diagnostics())
            located.add(finding);
        err << located.renderText();
        return std::nullopt;
    }
}

/**
 * Fold the fault-tolerance flags into @p spec (on top of whatever the
 * config file set). Returns 0, or the exit code after reporting bad
 * input: 2 for a bad flag value, 1 for a fault spec that fails its
 * check.
 */
int
applyFaultToleranceFlags(const ParsedArgs &args, std::ostream &err,
                         launcher::ReproSpec &spec)
{
    size_t retries = spec.retry.maxAttempts - 1;
    if (!parseCount(args, err, "run", "retries", 0, retries) ||
        !parseCount(args, err, "run", "max-failures", 0,
                    spec.maxFailures))
        return 2;
    spec.retry.maxAttempts = retries + 1;
    std::string backoff = args.get("retry-backoff");
    if (!backoff.empty()) {
        auto parsed = util::parseDouble(backoff);
        if (!parsed || *parsed < 0.0) {
            err << "run: --retry-backoff must be a number >= 0\n";
            return 2;
        }
        spec.retry.backoffBaseSeconds = *parsed;
    }
    std::string rate = args.get("max-failure-rate");
    if (!rate.empty()) {
        auto parsed = util::parseDouble(rate);
        if (!parsed || *parsed <= 0.0 || *parsed > 1.0) {
            err << "run: --max-failure-rate must be in (0, 1]\n";
            return 2;
        }
        spec.maxFailureRate = *parsed;
    }
    std::string fault = args.get("fault");
    if (!fault.empty()) {
        std::optional<launcher::FaultSpec> loaded =
            loadSpecFile(fault, &launcher::FaultSpec::fromJson, err);
        if (!loaded)
            return 1;
        spec.fault = *loaded;
        spec.faultEnabled = true;
    }
    return 0;
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

int
cmdRun(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    // Resume path: everything comes from the journal's spec header.
    launcher::CampaignIo io;
    std::string resume_flag = args.get("resume");
    if (!resume_flag.empty()) {
        io.journalPath = resolveJournalPath(resume_flag);
        io.journalMode = record::JournalMode::Resume;
        return executeRun({}, io, args, out, err, "");
    }
    if (args.has("journal")) {
        io.journalPath = args.get("journal");
        if (io.journalPath.empty()) {
            std::string base = args.get("out");
            if (base.empty()) {
                err << "run: --journal needs a path (or --out to "
                       "derive one from)\n";
                return 2;
            }
            io.journalPath = base + ".journal.jsonl";
        }
    }

    // A JSON config file describes the entire run; command-line flags
    // below are the quick path.
    std::string config_path = args.get("config");
    if (!config_path.empty()) {
        std::optional<launcher::ReproSpec> loaded = loadSpecFile(
            config_path, &launcher::ReproSpec::fromJson, err);
        if (!loaded)
            return 1;
        launcher::ReproSpec &spec = *loaded;
        if (!parseCount(args, err, "run", "jobs", 1, spec.jobs))
            return 2;
        if (int status = applyFaultToleranceFlags(args, err, spec))
            return status;
        return executeRun(spec, io, args, out, err, spec.workload);
    }

    std::string workload = args.get("workload");
    std::string scenario_path = args.get("scenario");
    if (workload.empty() && scenario_path.empty()) {
        err << "run: --workload or --scenario is required (see "
               "`sharp list`)\n";
        return 2;
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
    spec.experiment.ruleName = args.get("rule", "ks");
    for (const char *key : {"threshold", "level", "count", "min",
                            "quantile", "prominence"}) {
        std::string value = args.get(key);
        if (!value.empty()) {
            auto parsed = util::parseDouble(value);
            if (!parsed) {
                err << "run: --" << key << " must be a number\n";
                return 2;
            }
            spec.experiment.ruleParams[key] = *parsed;
        }
    }
    spec.experiment.makeRule(); // validate before a journal opens
    spec.experiment.options.maxSamples = 2000;
    if (!parseCount(args, err, "run", "day", 0, spec.day) ||
        !parseCount(args, err, "run", "seed", 0, spec.seed) ||
        !parseCount(args, err, "run", "concurrency", 1,
                    spec.concurrency) ||
        !parseCount(args, err, "run", "jobs", 1, spec.jobs) ||
        !parseCount(args, err, "run", "max", 2,
                    spec.experiment.options.maxSamples))
        return 2;
    if (int status = applyFaultToleranceFlags(args, err, spec))
        return status;

    std::string label = scenario_path.empty() ?
                            workload + " @ " + machine_id :
                            scenario_path;
    return executeRun(spec, io, args, out, err, label);
}

int
cmdReproduce(const ParsedArgs &args, std::ostream &out,
             std::ostream &err)
{
    if (args.positional.empty()) {
        err << "reproduce: a metadata file is required\n";
        return 2;
    }
    record::MetadataDocument doc =
        record::MetadataDocument::load(args.positional[0]);
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
    launcher::LaunchReport result =
        launcher::runCampaign(launcher::reproSpecFromMetadata(doc))
            .report;
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
    record::CsvTable table = record::CsvTable::load(path);
    std::string metric = args.get("metric", "execution_time");
    std::string workload = args.get("workload");
    if (!workload.empty()) {
        return table.numericColumnWhere(metric, "workload", workload);
    }
    // Exclude warmup rows when the column exists.
    if (table.columnIndex("warmup")) {
        return table.numericColumnWhere(metric, "warmup", "false");
    }
    return table.numericColumn(metric);
}

int
cmdReport(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    if (args.positional.empty()) {
        err << "report: a CSV file is required\n";
        return 2;
    }
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
    if (args.positional.empty() || args.positional[0] != "capture") {
        err << "baseline: expected `sharp baseline capture <runs...> "
               "--out PATH`\n";
        return 2;
    }
    std::vector<std::string> inputs(args.positional.begin() + 1,
                                    args.positional.end());
    if (inputs.empty()) {
        err << "baseline capture: at least one recorded run (CSV or "
               ".jsonl journal) is required\n";
        return 2;
    }
    std::string out_path = args.get("out");
    if (out_path.empty()) {
        err << "baseline capture: --out PATH is required\n";
        return 2;
    }
    compare::CaptureOptions options;
    options.metric = args.get("metric", options.metric);
    options.groupBy = args.get("group-by", options.groupBy);
    if (!parseCount(args, err, "baseline capture", "jobs", 1,
                    options.jobs))
        return 2;

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
 * The `--against` arm of `sharp compare`: capture the candidate runs
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
    if (args.positional.empty()) {
        err << "compare: candidate run files are required with "
               "--against\n";
        return 2;
    }
    std::string format = args.get("format", "text");
    if (format != "text" && format != "json") {
        err << "compare: unknown --format '" << format
            << "' (expected text or json)\n";
        return 2;
    }

    compare::CompareTolerances tolerances;
    auto parse_flag = [&](const char *key, double &target) {
        std::string value = args.get(key);
        if (value.empty())
            return true;
        auto parsed = util::parseDouble(value);
        if (!parsed) {
            err << "compare: --" << key << " must be a number\n";
            return false;
        }
        target = *parsed;
        return true;
    };
    if (!parse_flag("median-ratio", tolerances.medianRatio) ||
        !parse_flag("median-slack", tolerances.medianSlack) ||
        !parse_flag("ks-limit", tolerances.ksLimit) ||
        !parse_flag("cv-limit", tolerances.cvLimit) ||
        !parse_flag("level", tolerances.level)) {
        return 2;
    }
    if (!parseCount(args, err, "compare", "resamples", 0,
                    tolerances.resamples) ||
        !parseCount(args, err, "compare", "seed", 0, tolerances.seed)) {
        return 2;
    }

    try {
        compare::BaselineBundle baseline =
            compare::loadBundle(args.get("against"));
        compare::CaptureOptions capture;
        // The bundle dictates the comparison currency; --metric only
        // overrides it explicitly (and a mismatch is then an error).
        capture.metric = args.get("metric", baseline.metric);
        if (!baseline.groupBy.empty())
            capture.groupBy = baseline.groupBy;
        if (!parseCount(args, err, "compare", "jobs", 1, capture.jobs))
            return 2;
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
    if (args.has("against"))
        return cmdCompareAgainst(args, out, err);
    if (args.positional.size() < 2) {
        err << "compare: two CSV files are required\n";
        return 2;
    }
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
cmdMicro(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    if (args.positional.empty()) {
        util::TextTable table({"probe", "measures", "unit"});
        for (const auto &probe : micro::microRegistry())
            table.addRow({probe.name, probe.description, probe.unit});
        out << table.render();
        out << "run one with: sharp micro <probe>\n";
        return 0;
    }

    const auto &probe = micro::microByName(args.positional[0]);
    core::StoppingRuleFactory::Params params;
    std::string threshold = args.get("threshold");
    if (!threshold.empty()) {
        auto parsed = util::parseDouble(threshold);
        if (!parsed) {
            err << "micro: --threshold must be a number\n";
            return 2;
        }
        params["threshold"] = *parsed;
    }
    auto rule = core::StoppingRuleFactory::instance().make(
        args.get("rule", "ks"), params);

    launcher::LaunchOptions options;
    options.warmupRounds = 3;
    options.primaryMetric = "value";
    options.maxSamples = 500;
    if (!parseCount(args, err, "micro", "jobs", 1, options.jobs) ||
        !parseCount(args, err, "micro", "max", 2, options.maxSamples))
        return 2;

    auto backend = std::make_shared<micro::MicroBackend>(probe);
    launcher::Launcher l(backend, std::move(rule), options);
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
cmdSuite(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    std::string machine = args.get("machine", "machine1");
    core::ExperimentConfig config;
    config.ruleName = args.get("rule", "ks");
    for (const char *key : {"threshold", "level", "count", "min"}) {
        std::string value = args.get(key);
        if (!value.empty()) {
            auto parsed = util::parseDouble(value);
            if (!parsed) {
                err << "suite: --" << key << " must be a number\n";
                return 2;
            }
            config.ruleParams[key] = *parsed;
        }
    }
    config.options.maxSamples = 1000;
    size_t jobs = 1;
    size_t retries = 0;
    if (!parseCount(args, err, "suite", "max", 2,
                    config.options.maxSamples) ||
        !parseCount(args, err, "suite", "seed", 0, config.seed) ||
        !parseCount(args, err, "suite", "jobs", 1, jobs) ||
        !parseCount(args, err, "suite", "retries", 0, retries))
        return 2;
    launcher::RetryPolicy retry;
    retry.maxAttempts = retries + 1;
    config.makeRule(); // validate eagerly

    std::string scenarios_dir = args.get("scenarios");
    std::vector<launcher::SuiteEntry> entries;
    if (!scenarios_dir.empty()) {
        entries = launcher::scenarioSuite(scenarios_dir);
        if (entries.empty()) {
            err << "suite: no scenario files (*.json) in '"
                << scenarios_dir << "'\n";
            return 2;
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
cmdGate(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    if (args.positional.size() < 2) {
        err << "gate: baseline and candidate CSV files are required\n";
        return 2;
    }
    auto baseline = loadMetric(args.positional[0], args);
    auto candidate = loadMetric(args.positional[1], args);

    report::GateConfig config;
    auto parse_flag = [&](const char *key, double &target) {
        std::string value = args.get(key);
        if (value.empty())
            return true;
        auto parsed = util::parseDouble(value);
        if (!parsed) {
            err << "gate: --" << key << " must be a number\n";
            return false;
        }
        target = *parsed;
        return true;
    };
    if (!parse_flag("slowdown", config.maxSlowdown) ||
        !parse_flag("ks", config.maxKsDistance) ||
        !parse_flag("alpha", config.alpha)) {
        return 2;
    }
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
    if (!parseCount(args, err, "calibrate", "seed", 0,
                    config.baseSeed) ||
        !parseCount(args, err, "calibrate", "seeds", 1,
                    config.seedsPerCell) ||
        !parseCount(args, err, "calibrate", "max", 2,
                    config.maxSamples) ||
        !parseCount(args, err, "calibrate", "truth", 2,
                    config.truthSamples) ||
        !parseCount(args, err, "calibrate", "jobs", 1, config.jobs)) {
        return 2;
    }
    auto parse_list = [&](const char *key,
                          std::vector<std::string> &target) {
        std::string value = args.get(key);
        if (value.empty())
            return;
        for (const auto &name : util::split(value, ',')) {
            std::string trimmed = util::trim(name);
            if (!trimmed.empty())
                target.push_back(trimmed);
        }
    };
    parse_list("rules", config.rules);
    parse_list("distributions", config.distributions);
    config.recordTimings = args.has("timings");

    // Scenario files feed the sweep as extra distributions: the meta
    // rule's delegation is re-tuned against exactly the nonstationary
    // streams the scenario library ships. Trace scenarios are skipped
    // — a recorded stream has no generator to draw ground truth from.
    std::string scenarios_dir = args.get("scenarios");
    if (!scenarios_dir.empty()) {
        size_t traces = 0;
        for (const auto &name : util::listDirectory(scenarios_dir)) {
            if (!util::endsWith(name, ".json"))
                continue;
            sim::ScenarioSpec scenario =
                sim::loadScenario(scenarios_dir + "/" + name);
            if (scenario.isTrace()) {
                ++traces;
                continue;
            }
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

    // Console view: per-rule medians across the swept distributions.
    util::TextTable table({"rule", "distribution", "median runs",
                           "median KS", "fired"});
    for (const auto &[rule, dists] : summary.at("rules").members()) {
        for (const auto &[dist, entry] : dists.members()) {
            table.addRow(
                {rule, dist,
                 util::formatDouble(
                     entry.getNumber("median_samples", 0.0), 1),
                 util::formatDouble(entry.getNumber("median_ks", 0.0),
                                    4),
                 util::formatDouble(
                     entry.getNumber("fired_fraction", 0.0) * 100.0,
                     0) +
                     "%"});
        }
    }
    out << table.render();
    out << "classifier accuracy: "
        << util::formatDouble(
               summary.at("classifier").getNumber("accuracy", 0.0) *
                   100.0,
               1)
        << "% over " << result.cells.size() << " cells\n";
    if (const json::Value *versus = summary.find("meta_vs_fixed")) {
        out << "meta vs fixed: " << versus->getNumber("wins", 0.0)
            << "/" << versus->getNumber("distributions", 0.0)
            << " distributions won\n";
    }

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
    std::string baseline_path = args.get("baseline");
    if (!baseline_path.empty()) {
        calibrate::GateReport gate = calibrate::compareToBaseline(
            json::parseFile(baseline_path), summary);
        out << gate.render();
        return gate.pass ? 0 : 1;
    }
    return 0;
}

int
cmdWorkflow(const ParsedArgs &args, std::ostream &out,
            std::ostream &err)
{
    if (args.positional.empty()) {
        err << "workflow: a spec file is required\n";
        return 2;
    }
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
cmdCheck(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    std::string format = args.get("format", "text");
    if (format != "text" && format != "json") {
        err << "unknown --format '" << format
            << "' (expected text or json)\n";
        return 2;
    }

    // Campaign mode: one state directory, audited as a whole (every
    // artifact deep-checked plus the cross-artifact lints).
    if (args.has("campaign")) {
        std::string dir = args.get("campaign");
        if (dir.empty() && !args.positional.empty())
            dir = args.positional.front();
        if (dir.empty()) {
            err << "check --campaign requires a state directory\n";
            return 2;
        }
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

    if (args.positional.empty()) {
        err << "check requires at least one artifact path\n";
        return 2;
    }

    // Directory arguments expand to their artifact-shaped entries
    // (.json, .jsonl, .md), non-recursively and in sorted order, so
    // `sharp check scenarios/ examples/` covers whole libraries
    // without enumerating files in CI scripts. Anything else in the
    // directory folds into one informational note instead of a
    // per-file complaint.
    std::vector<std::string> paths;
    size_t skippedFiles = 0;
    for (const auto &path : args.positional) {
        if (!util::isDirectory(path)) {
            paths.push_back(path);
            continue;
        }
        for (const auto &name : util::listDirectory(path)) {
            std::string full = path;
            if (!full.empty() && full.back() != '/')
                full += '/';
            full += name;
            if (util::isDirectory(full))
                continue;
            if (util::endsWith(name, ".json") ||
                util::endsWith(name, ".jsonl") ||
                util::endsWith(name, ".md")) {
                paths.push_back(std::move(full));
            } else {
                ++skippedFiles;
            }
        }
    }
    if (paths.empty() && skippedFiles == 0) {
        err << "check: no artifacts found under the given paths\n";
        return 2;
    }

    check::CheckResult total;
    size_t clean = 0;
    for (const auto &path : paths) {
        check::CheckResult result;
        check::ArtifactKind kind =
            check::checkArtifactFile(path, result);
        if (format == "text") {
            out << result.renderText();
            // Notes are informational: an artifact with only notes
            // is still ok, as its exit code says.
            if (result.exitCode() == 0) {
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
                        " non-artifact file(s) (not .json/.jsonl/.md)");
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
    if (options.socketPath.empty() || options.stateDir.empty()) {
        err << "serve: --socket and --state-dir are required\n";
        return 2;
    }
    if (!parseCount(args, err, "serve", "shards", 1, options.shards) ||
        !parseCount(args, err, "serve", "max-queued", 1,
                    options.maxQueuedPerTenant) ||
        !parseCount(args, err, "serve", "max-failovers", 0,
                    options.maxFailovers))
        return 2;
    std::string deadline = args.get("round-deadline");
    if (!deadline.empty()) {
        auto parsed = util::parseDouble(deadline);
        if (!parsed || *parsed <= 0.0) {
            err << "serve: --round-deadline must be a number > 0\n";
            return 2;
        }
        options.roundDeadlineSeconds = *parsed;
    }
    return serve::runDaemon(options, out, err);
}

int
cmdClient(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    std::string socket = args.get("socket");
    if (socket.empty()) {
        err << "client: --socket is required\n";
        return 2;
    }
    if (args.positional.empty()) {
        err << "client: an operation is required "
               "(submit|status|results|cancel|drain|ping|wait)\n";
        return 2;
    }
    const std::string &op = args.positional[0];

    if (op == "wait") {
        if (args.positional.size() < 2) {
            err << "client: wait needs a campaign id\n";
            return 2;
        }
        double timeout = 300.0;
        std::string flag = args.get("timeout");
        if (!flag.empty()) {
            auto parsed = util::parseDouble(flag);
            if (!parsed || *parsed <= 0.0) {
                err << "client: --timeout must be a number > 0\n";
                return 2;
            }
            timeout = *parsed;
        }
        json::Value response = serve::waitForCampaign(
            socket, args.positional[1], timeout);
        out << json::writePretty(response) << "\n";
        if (response.getBool("ok", false)) {
            const json::Value *campaign = response.find("campaign");
            std::string state =
                campaign ? campaign->getString("state", "") : "";
            return state == "done" ? 0 : 2;
        }
        return serve::clientExitCode(response);
    }

    json::Value request = json::Value::makeObject();
    request.set("op", op);
    if (op == "submit") {
        if (args.positional.size() < 2) {
            err << "client: submit needs a spec file\n";
            return 2;
        }
        request.set("tenant", args.get("tenant", "default"));
        request.set("spec", json::parseFile(args.positional[1]));
    } else if (op == "results" || op == "cancel") {
        if (args.positional.size() < 2) {
            err << "client: " << op << " needs a campaign id\n";
            return 2;
        }
        request.set("id", args.positional[1]);
    } else if (op == "status") {
        if (args.positional.size() > 1)
            request.set("id", args.positional[1]);
    } else if (op != "drain" && op != "ping") {
        err << "client: unknown operation '" << op << "'\n";
        return 2;
    }

    json::Value response;
    try {
        response = serve::clientRequest(socket, request);
    } catch (const std::exception &problem) {
        err << "client: " << problem.what() << "\n";
        return 1; // unreachable daemon is retryable by definition
    }
    out << json::writePretty(response) << "\n";
    return serve::clientExitCode(response);
}

} // anonymous namespace

int
runCli(const std::vector<std::string> &argv, std::ostream &out,
       std::ostream &err)
{
    try {
        ParsedArgs args = parseArgs(argv);
        if (args.command.empty() || args.command == "help" ||
            args.has("help")) {
            out << usageText;
            return args.command.empty() && argv.empty() ? 2 : 0;
        }
        if (args.command == "list")
            return cmdList(out);
        if (args.command == "run")
            return cmdRun(args, out, err);
        if (args.command == "reproduce")
            return cmdReproduce(args, out, err);
        if (args.command == "report")
            return cmdReport(args, out, err);
        if (args.command == "compare")
            return cmdCompare(args, out, err);
        if (args.command == "baseline")
            return cmdBaseline(args, out, err);
        if (args.command == "gate")
            return cmdGate(args, out, err);
        if (args.command == "calibrate")
            return cmdCalibrate(args, out, err);
        if (args.command == "suite")
            return cmdSuite(args, out, err);
        if (args.command == "micro")
            return cmdMicro(args, out, err);
        if (args.command == "workflow")
            return cmdWorkflow(args, out, err);
        if (args.command == "check")
            return cmdCheck(args, out, err);
        if (args.command == "serve")
            return cmdServe(args, out, err);
        if (args.command == "client")
            return cmdClient(args, out, err);
        err << "unknown command '" << args.command
            << "' (try `sharp help`)\n";
        return 2;
    } catch (const std::exception &ex) {
        err << "error: " << ex.what() << "\n";
        return 1;
    }
}

} // namespace cli
} // namespace sharp
