#include "check/analyzer.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "calibrate/baseline.hh"
#include "compare/bundle.hh"
#include "compare/compare.hh"
#include "core/config.hh"
#include "json/parser.hh"
#include "launcher/fault_backend.hh"
#include "launcher/reproduce.hh"
#include "launcher/retry.hh"
#include "launcher/scenario_backend.hh"
#include "record/journal.hh"
#include "record/metadata.hh"
#include "record/run_log.hh"
#include "serve/queue.hh"
#include "serve/state.hh"
#include "simd/dispatch.hh"
#include "sim/scenario.hh"
#include "util/fs.hh"
#include "util/string_utils.hh"
#include "workflow/workflow_parser.hh"

namespace sharp
{
namespace check
{

namespace
{

/** True when the object has any of the keys. */
bool
hasAnyKey(const json::Value &doc,
          const std::vector<std::string> &keys)
{
    if (!doc.isObject())
        return false;
    for (const auto &key : keys) {
        if (doc.find(key))
            return true;
    }
    return false;
}

} // anonymous namespace

record::JournalContents
checkJournal(const std::string &text, CheckResult &out)
{
    record::JournalContents contents = record::walkJournal(text, out);
    // A resumable journal whose spec no longer runs (a workload that
    // left the registry, say) is flagged before anyone resumes it.
    if (contents.spec.isObject())
        launcher::checkRunSpec(contents.spec, out);
    return contents;
}

record::MetadataDocument
checkMetadata(const std::string &text, CheckResult &out)
{
    record::MetadataDocument doc = record::MetadataDocument::parse(text, out);
    size_t errors = out.errorCount();
    json::Value spec = launcher::reproSpecObject(doc, out);
    if (out.errorCount() > errors)
        return doc;
    // The spec the entries record, linted like a run-spec file; each
    // finding lands on its entry's line.
    launcher::checkRunSpec(spec, out);

    auto at = [&doc](const char *key) {
        auto line = doc.findEntry("Configuration", key)->line;
        return json::Location{static_cast<uint32_t>(line), 0};
    };
    if (spec.getString("backend", "") == "local") {
        std::string message =
            "metadata records the 'local' backend; wall-clock timings "
            "cannot replay bit-exactly";
        if (spec.getNumber("jobs", 1.0) > 1.0) {
            message += " (and jobs=" +
                       *doc.get("Configuration", "repro_jobs") +
                       " adds scheduling nondeterminism)";
        }
        out.report(Severity::Warning, at("repro_backend"),
                   "nondeterministic-repro", message,
                   "expect distribution-level, not sample-level, "
                   "agreement on reproduction");
    }
    // "avx512" names a retired backend (those hosts now dispatch
    // avx2); artifacts that record it hold the same bits.
    std::vector<std::string> simds = simd::knownBackendNames();
    simds.push_back("avx512");
    auto simd = doc.get("Configuration", "repro_simd_backend");
    if (simd && std::find(simds.begin(), simds.end(), *simd) == simds.end()) {
        out.report(Severity::Error, at("repro_simd_backend"),
                   "unknown-simd-backend",
                   "metadata records SIMD backend '" + *simd +
                       "', which this build does not know",
                   suggestName(*simd, simds));
    }
    return doc;
}

bool
readArtifact(const std::string &path, std::string &text, CheckResult &out)
{
    out.setArtifact(path);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        out.error(std::string("io-error"), "cannot read '" + path + "'");
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
    return true;
}

const char *
artifactKindName(ArtifactKind kind)
{
    switch (kind) {
    case ArtifactKind::RunSpec:
        return "run spec";
    case ArtifactKind::FaultSpec:
        return "fault spec";
    case ArtifactKind::RetryPolicy:
        return "retry policy";
    case ArtifactKind::ExperimentConfig:
        return "experiment config";
    case ArtifactKind::Workflow:
        return "workflow";
    case ArtifactKind::Journal:
        return "journal";
    case ArtifactKind::Baseline:
        return "calibration baseline";
    case ArtifactKind::Scenario:
        return "scenario";
    case ArtifactKind::BaselineBundle:
        return "baseline bundle";
    case ArtifactKind::CompareReport:
        return "compare report";
    case ArtifactKind::Metadata:
        return "metadata";
    case ArtifactKind::QueueJournal:
        return "queue journal";
    case ArtifactKind::DaemonState:
        return "daemon state";
    case ArtifactKind::TidyCsv:
        return "tidy CSV";
    case ArtifactKind::Unknown:
        break;
    }
    return "unknown";
}

namespace
{

/** True when @p doc is a run journal's spec header line. */
bool
isSpecHeader(const json::Value &doc)
{
    return doc.isObject() && doc.getString("type", "") == "spec" &&
           doc.find("spec");
}

/** True when @p text's first line starts with the tidy CSV's factors. */
bool
startsWithTidyHeader(const std::string &text)
{
    std::string factors;
    for (const record::FactorColumn &column : record::factorColumns())
        factors += std::string(factors.empty() ? "" : ",") + column.name;
    if (!util::startsWith(text, factors))
        return false;
    char next = text.size() > factors.size() ? text[factors.size()] : '\n';
    return next == ',' || next == '\n' || next == '\r';
}

/** True when @p text's first line is a run journal's spec header. */
bool
startsWithSpecHeader(const std::string &text)
{
    std::string first = text.substr(0, text.find('\n'));
    if (first.find("\"spec\"") == std::string::npos)
        return false;
    try {
        return isSpecHeader(json::parse(first));
    } catch (const json::ParseError &) {
        return false;
    }
}

} // anonymous namespace

ArtifactKind
sniffArtifact(const std::string &path, const std::string &text,
              const json::Value *doc)
{
    if (util::endsWith(path, ".md") || util::startsWith(text, "# "))
        return ArtifactKind::Metadata;
    // A `.csv` with no record at all is a tidy CSV that lost its
    // header, as every CSV reader reports it (`csv-empty`).
    if (startsWithTidyHeader(text) ||
        (util::endsWith(path, ".csv") &&
         text.find_first_not_of("\r\n") == std::string::npos))
        return ArtifactKind::TidyCsv;
    // Both JSONL artifacts carry their identity on line 1, whatever
    // the file is named: the queue journal a schema tag, the run
    // journal a spec header.
    if (serve::looksLikeQueueJournal(text))
        return ArtifactKind::QueueJournal;
    if (util::endsWith(path, ".jsonl") || startsWithSpecHeader(text))
        return ArtifactKind::Journal;
    if (!doc)
        return ArtifactKind::Unknown;
    if (isSpecHeader(*doc))
        return ArtifactKind::Journal;
    if (doc->isObject() && doc->find("schema")) {
        // Schema-tagged documents are told apart by the tag's value;
        // an unknown tag falls back to the calibration baseline, whose
        // checker reports the mismatch with the expected tag.
        std::string schema = doc->getString("schema", "");
        if (schema == compare::kBaselineBundleSchema)
            return ArtifactKind::BaselineBundle;
        if (schema == compare::kCompareReportSchema)
            return ArtifactKind::CompareReport;
        if (schema == sim::kScenarioSchema)
            return ArtifactKind::Scenario;
        if (schema == serve::daemonStateSchema)
            return ArtifactKind::DaemonState;
        return ArtifactKind::Baseline;
    }
    if (hasAnyKey(*doc, {"states", "functions"}))
        return ArtifactKind::Workflow;
    if (hasAnyKey(*doc, {"backend", "experiment", "workload", "argv"}))
        return ArtifactKind::RunSpec;
    if (hasAnyKey(*doc, {"crash", "spawn_error", "hang", "corrupt",
                         "flaky_exit", "slow", "slow_factor",
                         "slow_metric"}))
        return ArtifactKind::FaultSpec;
    if (hasAnyKey(*doc, {"attempts", "backoff", "multiplier",
                         "max_backoff", "jitter", "kinds"}))
        return ArtifactKind::RetryPolicy;
    if (hasAnyKey(*doc, {"rule", "params", "warmup", "min", "max",
                         "checkInterval"}))
        return ArtifactKind::ExperimentConfig;
    return ArtifactKind::Unknown;
}

void
checkDocument(ArtifactKind kind, const json::Value &doc,
              CheckResult &out)
{
    switch (kind) {
    case ArtifactKind::RunSpec:
        launcher::checkRunSpec(doc, out);
        break;
    case ArtifactKind::FaultSpec:
        launcher::checkFaultSpec(doc, out);
        break;
    case ArtifactKind::RetryPolicy:
        launcher::checkRetryPolicy(doc, out);
        break;
    case ArtifactKind::ExperimentConfig:
        core::checkExperimentConfig(doc, out);
        break;
    case ArtifactKind::Workflow:
        workflow::checkWorkflow(doc, out);
        break;
    case ArtifactKind::Baseline:
        calibrate::checkBaseline(doc, out);
        break;
    case ArtifactKind::Scenario:
        // No file path in this entry point, so the relative trace-path
        // existence lint is skipped; checkArtifactText threads the
        // artifact's directory through for the on-disk case.
        sim::checkScenario(doc, "", out);
        break;
    case ArtifactKind::BaselineBundle:
        compare::checkBaselineBundle(doc, out);
        break;
    case ArtifactKind::CompareReport:
        compare::checkCompareReport(doc, out);
        break;
    case ArtifactKind::DaemonState:
        serve::checkDaemonState(doc, out);
        break;
    case ArtifactKind::QueueJournal:
    case ArtifactKind::Journal:
    case ArtifactKind::Metadata:
    case ArtifactKind::TidyCsv:
        // Text formats; checkArtifactText routes them before parsing.
        break;
    case ArtifactKind::Unknown: {
        std::string known;
        for (int k = 0; k < static_cast<int>(ArtifactKind::Unknown); ++k) {
            known += known.empty() ? "expected a " : ", ";
            known += artifactKindName(static_cast<ArtifactKind>(k));
        }
        out.warning(std::string("unknown-artifact"),
                    "cannot tell what kind of artifact this is", known);
        break;
    }
    }
}

namespace
{

/**
 * Check a scenario file: the document, then, for a trace scenario
 * whose trace exists, the trace as replay walks it.
 */
void
checkScenarioFile(const std::string &path, const json::Value &doc,
                  CheckResult &out)
{
    // The file's own directory anchors relative trace paths, so the
    // dangling-trace lint works wherever check is invoked from.
    size_t errors = out.errorCount();
    sim::checkScenario(doc, sim::dirNameOf(path), out);
    if (out.errorCount() > errors || doc.getString("family", "") != "trace")
        return;
    sim::ScenarioSpec spec =
        sim::ScenarioSpec::fromJson(doc, sim::dirNameOf(path));
    std::string trace = spec.tracePath();
    if (!util::fileExists(trace))
        return; // checkScenario reported the dangling path
    std::string artifact = out.artifact();
    out.setArtifact(trace);
    launcher::walkTrace(trace, spec.trace.metric, out);
    out.setArtifact(artifact);
}

} // anonymous namespace

ArtifactKind
checkArtifactText(const std::string &path, const std::string &text,
                  ArtifactKind kind, CheckResult &out)
{
    // Text formats first, by name: they are not (single-document) JSON.
    if (kind == ArtifactKind::Unknown)
        kind = sniffArtifact(path, text, nullptr);
    if (kind == ArtifactKind::TidyCsv) {
        // The rows as replay reads them; ingest skips or counts what
        // replay rejects, so here each finding is a warning.
        std::istringstream in(text);
        record::walkTidyCsv(in, out, Severity::Warning,
                            [](record::RunRecord &&) {});
        return kind;
    }
    if (kind == ArtifactKind::Unknown && util::endsWith(path, ".csv")) {
        out.report(Severity::Note, json::Location{}, "non-artifact",
                   "not a tidy CSV (its header does not start with the "
                   "factor columns); not checked");
        return kind;
    }
    json::Value doc;
    if (kind != ArtifactKind::Journal && kind != ArtifactKind::Metadata &&
        kind != ArtifactKind::QueueJournal) {
        try {
            doc = json::parse(text);
        } catch (const json::ParseError &problem) {
            out.syntaxError(problem);
            return kind;
        }
        if (kind == ArtifactKind::Unknown)
            kind = sniffArtifact(path, text, &doc);
    }
    if (kind == ArtifactKind::Journal)
        checkJournal(text, out);
    else if (kind == ArtifactKind::QueueJournal)
        serve::walkQueue(text, out, true);
    else if (kind == ArtifactKind::Metadata)
        checkMetadata(text, out);
    else if (kind == ArtifactKind::Scenario)
        checkScenarioFile(path, doc, out);
    else
        checkDocument(kind, doc, out);
    return kind;
}

ArtifactKind
checkArtifactFile(const std::string &path, CheckResult &out)
{
    std::string text;
    if (!readArtifact(path, text, out))
        return ArtifactKind::Unknown;
    return checkArtifactText(path, text, ArtifactKind::Unknown, out);
}

std::vector<std::string>
expandArtifactPaths(const std::vector<std::string> &paths,
                    size_t &skipped)
{
    std::vector<std::string> files;
    for (const auto &path : paths) {
        if (!util::isDirectory(path)) {
            files.push_back(path);
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
                util::endsWith(name, ".md") ||
                util::endsWith(name, ".csv")) {
                files.push_back(std::move(full));
            } else {
                ++skipped;
            }
        }
    }
    return files;
}

} // namespace check
} // namespace sharp
