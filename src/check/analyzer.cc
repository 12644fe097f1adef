#include "check/analyzer.hh"

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
#include "record/journal.hh"
#include "record/metadata.hh"
#include "serve/queue.hh"
#include "serve/state.hh"
#include "simd/dispatch.hh"
#include "sim/scenario.hh"
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

/** 1-based line of the first line containing @p needle; 0 = absent. */
size_t
findLine(const std::string &text, const std::string &needle)
{
    size_t line = 1;
    size_t start = 0;
    while (start <= text.size()) {
        size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        if (text.compare(start, end - start, needle) == 0 ||
            text.substr(start, end - start).find(needle) !=
                std::string::npos) {
            return line;
        }
        if (end == text.size())
            break;
        start = end + 1;
        ++line;
    }
    return 0;
}

/**
 * Merge @p findings into @p out, stamping @p fallback_line onto any
 * diagnostic that has no location of its own. Used where the checked
 * document was reconstructed (journal spec line, metadata) and only
 * the enclosing source line is known.
 */
void
mergeWithFallbackLine(const CheckResult &findings, size_t fallback_line,
                      CheckResult &out)
{
    for (Diagnostic diagnostic : findings.diagnostics()) {
        if (diagnostic.line == 0)
            diagnostic.line = fallback_line;
        out.add(std::move(diagnostic));
    }
}

/**
 * Journal deep check: the line-oriented lints, plus a full run-spec
 * analysis of the journaled spec so a resumable journal with, say, a
 * workload that no longer exists is flagged before anyone resumes it.
 */
void
checkJournal(const std::string &text, CheckResult &out)
{
    record::checkJournalText(text, out);

    // The spec line is journal line 1, parsed alone — so locations
    // from re-parsing it are already correct for the whole file.
    size_t end = text.find('\n');
    std::string first = end == std::string::npos ? text :
                                                   text.substr(0, end);
    if (first.empty())
        return;
    json::Value doc;
    try {
        doc = json::parse(first);
    } catch (const std::exception &) {
        return; // already reported by checkJournalText
    }
    if (doc.getString("type", "") != "spec")
        return;
    const json::Value *spec = doc.find("spec");
    if (!spec || !spec->isObject())
        return;
    launcher::checkRunSpec(*spec, out);
}

/** Metadata deep check: parse, rebuild the spec, lint it. */
void
checkMetadata(const std::string &text, CheckResult &out)
{
    record::MetadataDocument doc;
    try {
        doc = record::MetadataDocument::parse(text);
    } catch (const std::exception &problem) {
        out.error(std::string("metadata-syntax"),
                  std::string("malformed metadata document: ") +
                      problem.what());
        return;
    }
    if (!doc.hasSection("Configuration")) {
        out.error(std::string("missing-field"),
                  "metadata lacks a 'Configuration' section; "
                  "`sharp reproduce` cannot rebuild the experiment");
        return;
    }

    launcher::ReproSpec spec;
    try {
        spec = launcher::reproSpecFromMetadata(doc);
    } catch (const CheckFailure &failure) {
        mergeWithFallbackLine(failure.result(),
                              findLine(text, "## Configuration"), out);
        return;
    } catch (const std::exception &problem) {
        // Messages name the offending entry; point at its line.
        std::string what = problem.what();
        size_t line = 0;
        size_t quote = what.find("'");
        if (quote != std::string::npos) {
            size_t close = what.find("'", quote + 1);
            if (close != std::string::npos) {
                line = findLine(
                    text, what.substr(quote + 1, close - quote - 1));
            }
        }
        out.report(Severity::Error,
                   json::Location{static_cast<uint32_t>(line), 0},
                   "bad-metadata", what);
        return;
    }

    // Lint the reconstructed spec the same way a run-spec file is
    // linted; locations are unknown (the spec was rebuilt from
    // key/value entries), so findings point at the section header.
    CheckResult findings;
    launcher::checkRunSpec(spec.toJson(), findings);
    mergeWithFallbackLine(findings, findLine(text, "## Configuration"),
                          out);

    // The rebuilt spec drops the keys loading ignores, so lint the
    // recorded experiment too: obsolete keys get their notes at the
    // entry's line. It loaded above, so it parses and has no errors.
    CheckResult recorded;
    core::checkExperimentConfig(
        json::parse(*doc.get("Configuration", "repro_experiment")),
        recorded);
    size_t experiment_line = findLine(text, "repro_experiment");
    for (Diagnostic diagnostic : recorded.diagnostics()) {
        diagnostic.line = experiment_line;
        diagnostic.column = 0;
        out.add(std::move(diagnostic));
    }

    if (spec.backendKind == "local") {
        std::string message =
            "metadata records the 'local' backend; wall-clock timings "
            "cannot replay bit-exactly";
        if (spec.jobs > 1) {
            message += " (and jobs=" + std::to_string(spec.jobs) +
                       " adds scheduling nondeterminism)";
        }
        out.report(Severity::Warning,
                   json::Location{static_cast<uint32_t>(findLine(
                                      text, "repro_backend")),
                                  0},
                   "nondeterministic-repro", message,
                   "expect distribution-level, not sample-level, "
                   "agreement on reproduction");
    }

    if (auto backend = doc.get("Configuration",
                               "repro_simd_backend")) {
        bool known = false;
        for (const std::string &name : simd::knownBackendNames())
            known = known || name == *backend;
        if (!known) {
            out.report(
                Severity::Error,
                json::Location{static_cast<uint32_t>(findLine(
                                   text, "repro_simd_backend")),
                               0},
                "unknown-simd-backend",
                "metadata records SIMD backend '" + *backend +
                    "', which this build does not know",
                suggestName(*backend, simd::knownBackendNames()));
        }
    }

    if (doc.get("Configuration", "repro_stats_cache")) {
        out.report(Severity::Note,
                   json::Location{static_cast<uint32_t>(findLine(
                                      text, "repro_stats_cache")),
                                  0},
                   "obsolete-stats-cache",
                   launcher::obsoleteStatsCacheMessage);
    }
}

} // anonymous namespace

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
    case ArtifactKind::Unknown:
        break;
    }
    return "unknown";
}

ArtifactKind
sniffArtifact(const std::string &path, const std::string &text,
              const json::Value *doc)
{
    if (util::endsWith(path, ".md") || util::startsWith(text, "# "))
        return ArtifactKind::Metadata;
    if (util::endsWith(path, ".jsonl")) {
        // Both JSONL artifacts carry their identity on line 1: the
        // queue journal a schema tag, the run journal a spec header.
        return serve::looksLikeQueueJournal(text)
                   ? ArtifactKind::QueueJournal
                   : ArtifactKind::Journal;
    }
    if (!doc)
        return ArtifactKind::Unknown;
    if (doc->isObject() && doc->find("type") &&
        doc->getString("type", "") == "spec" && doc->find("spec"))
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
        // Text formats; checkArtifactText routes them before parsing.
        break;
    case ArtifactKind::Unknown:
        out.warning(std::string("unknown-artifact"),
                    "cannot tell what kind of artifact this is",
                    "expected a run/fault/retry/experiment spec, "
                    "workflow, journal, queue journal, daemon state, "
                    "baseline, or metadata");
        break;
    }
}

ArtifactKind
checkArtifactText(const std::string &path, const std::string &text,
                  ArtifactKind kind, CheckResult &out)
{
    // Text formats first: they are not (single-document) JSON.
    if (kind == ArtifactKind::Unknown &&
        (util::endsWith(path, ".md") || util::startsWith(text, "# ")))
        kind = ArtifactKind::Metadata;
    if (kind == ArtifactKind::Unknown && util::endsWith(path, ".jsonl"))
        kind = serve::looksLikeQueueJournal(text)
                   ? ArtifactKind::QueueJournal
                   : ArtifactKind::Journal;
    if (kind == ArtifactKind::Metadata) {
        checkMetadata(text, out);
        return kind;
    }
    if (kind == ArtifactKind::Journal) {
        checkJournal(text, out);
        return kind;
    }
    if (kind == ArtifactKind::QueueJournal) {
        serve::checkQueueText(text, out);
        return kind;
    }

    json::Value doc;
    try {
        doc = json::parse(text);
    } catch (const json::ParseError &problem) {
        out.syntaxError(problem);
        return kind;
    } catch (const std::exception &problem) {
        out.error(std::string("json-syntax"), problem.what());
        return kind;
    }
    if (kind == ArtifactKind::Unknown)
        kind = sniffArtifact(path, text, &doc);
    // Content sniffing can still land on a text format (a journal
    // named .json whose single line is the spec header).
    if (kind == ArtifactKind::Journal)
        checkJournal(text, out);
    else if (kind == ArtifactKind::QueueJournal)
        serve::checkQueueText(text, out);
    else if (kind == ArtifactKind::Metadata)
        checkMetadata(text, out);
    else if (kind == ArtifactKind::Scenario)
        // The file's own directory anchors relative trace paths, so
        // the dangling-trace lint works wherever check is invoked from.
        sim::checkScenario(doc, sim::dirNameOf(path), out);
    else
        checkDocument(kind, doc, out);
    return kind;
}

ArtifactKind
checkArtifactFile(const std::string &path, CheckResult &out)
{
    out.setArtifact(path);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        out.error(std::string("io-error"),
                  "cannot read '" + path + "'");
        return ArtifactKind::Unknown;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return checkArtifactText(path, buffer.str(), ArtifactKind::Unknown,
                             out);
}

} // namespace check
} // namespace sharp
