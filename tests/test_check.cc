/**
 * @file
 * Tests for the static analyzer: the Diagnostic/CheckResult API, the
 * per-artifact checkers, artifact sniffing, the seeded defect
 * fixtures (one per defect class, pinned down to severity, source
 * location, and exit code), and the `sharp check` CLI command.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "check/analyzer.hh"
#include "check/campaign.hh"
#include "check/diagnostic.hh"
#include "cli/cli.hh"
#include "core/config.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "launcher/reproduce.hh"
#include "record/journal.hh"
#include "record/run_log.hh"
#include "serve/state.hh"
#include "workflow/workflow_parser.hh"

namespace
{

using namespace sharp;
using check::ArtifactKind;
using check::CheckResult;
using check::Severity;

std::string
fixture(const std::string &name)
{
    return std::string(SHARP_SOURCE_DIR) + "/tests/fixtures/check/" +
           name;
}

std::string
example(const std::string &name)
{
    return std::string(SHARP_SOURCE_DIR) + "/examples/" + name;
}

/** First diagnostic carrying @p rule; nullptr when absent. */
const check::Diagnostic *
findRule(const CheckResult &result, const std::string &rule)
{
    for (const auto &diagnostic : result.diagnostics()) {
        if (diagnostic.rule == rule)
            return &diagnostic;
    }
    return nullptr;
}

TEST(Diagnostic, RenderIncludesLocationSeverityRuleAndHint)
{
    check::Diagnostic diagnostic;
    diagnostic.severity = Severity::Warning;
    diagnostic.artifact = "spec.json";
    diagnostic.line = 3;
    diagnostic.column = 7;
    diagnostic.rule = "unknown-field";
    diagnostic.message = "unknown field 'slowfactor'";
    diagnostic.hint = "did you mean 'slow_factor'?";
    EXPECT_EQ(diagnostic.render(),
              "spec.json:3:7: warning: unknown field 'slowfactor' "
              "[unknown-field] (hint: did you mean 'slow_factor'?)");
}

TEST(Diagnostic, RenderOmitsUnknownLocation)
{
    check::Diagnostic diagnostic;
    diagnostic.artifact = "j.jsonl";
    diagnostic.rule = "missing-spec";
    diagnostic.message = "no spec line";
    EXPECT_EQ(diagnostic.render(),
              "j.jsonl: error: no spec line [missing-spec]");
}

TEST(CheckResult, ExitCodeContract)
{
    CheckResult clean;
    EXPECT_EQ(clean.exitCode(), 0);
    EXPECT_TRUE(clean.clean());

    CheckResult warned;
    warned.warning(std::string("w"), "just a warning");
    EXPECT_EQ(warned.exitCode(), 1);
    EXPECT_TRUE(warned.ok());
    EXPECT_FALSE(warned.clean());

    CheckResult failed;
    failed.warning(std::string("w"), "warning");
    failed.error(std::string("e"), "error");
    EXPECT_EQ(failed.exitCode(), 2);
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(failed.errorCount(), 1u);
    EXPECT_EQ(failed.warningCount(), 1u);
}

TEST(CheckResult, ArtifactPathIsStampedOntoDiagnostics)
{
    CheckResult result;
    result.setArtifact("a.json");
    result.error(std::string("r"), "m");
    EXPECT_EQ(result.diagnostics()[0].artifact, "a.json");
}

TEST(CheckResult, ValueOverloadsCarryParsedLocations)
{
    auto doc = json::parse("{\n  \"crash\": 2.0\n}");
    CheckResult result;
    launcher::checkFaultSpec(doc, result);
    const check::Diagnostic *range = findRule(result, "out-of-range");
    ASSERT_NE(range, nullptr);
    EXPECT_EQ(range->line, 2u);
    EXPECT_GT(range->column, 1u);
}

TEST(SuggestName, SuggestsCloseNamesOnly)
{
    EXPECT_EQ(check::suggestName("hotspit", {"hotspot", "bfs"}),
              "did you mean 'hotspot'?");
    EXPECT_EQ(check::suggestName("zzz", {"hotspot", "bfs"}), "");
}

TEST(CheckFailure, LoadersThrowWithFullDiagnostics)
{
    auto doc = json::parse(
        R"({"backend": "sim", "experiment": {"rule": "kss"},
            "max_failures": -1})");
    try {
        launcher::ReproSpec::fromJson(doc);
        FAIL() << "expected CheckFailure";
    } catch (const check::CheckFailure &failure) {
        EXPECT_GE(failure.result().errorCount(), 2u);
        EXPECT_NE(findRule(failure.result(), "unknown-rule"), nullptr);
    }
}

TEST(CheckFailure, IsAnInvalidArgument)
{
    auto doc = json::parse(R"({"rule": 7})");
    EXPECT_THROW(core::ExperimentConfig::fromJson(doc),
                 std::invalid_argument);
}

TEST(CheckRunSpec, RegistryLintsAreCheckOnly)
{
    // Unknown backend kinds must still round-trip through the loader
    // (reproduce rejects them later, at backend construction) but the
    // analyzer flags them immediately.
    auto doc = json::parse(R"({"backend": "quantum"})");
    EXPECT_NO_THROW(launcher::ReproSpec::fromJson(doc));
    CheckResult result;
    launcher::checkRunSpec(doc, result);
    EXPECT_NE(findRule(result, "unknown-backend"), nullptr);
}

TEST(CheckRunSpec, FlagsFaultMetricTheBackendNeverEmits)
{
    auto doc = json::parse(
        R"({"backend": "sim", "workload": "hotspot",
            "fault": {"slow": 0.5, "slow_factor": 2.0,
                      "slow_metric": "response_time"}})");
    CheckResult result;
    launcher::checkRunSpec(doc, result);
    const check::Diagnostic *dangling =
        findRule(result, "dangling-metric");
    ASSERT_NE(dangling, nullptr);
    EXPECT_EQ(dangling->severity, Severity::Warning);
}

TEST(CheckWorkflow, ReportsEveryProblemInOnePass)
{
    auto doc = json::parse(R"({
        "functions": [{"name": "f", "operation": "true"},
                      {"name": "unused", "operation": "true"}],
        "states": [
          {"name": "a", "type": "operation",
           "actions": [{"functionRef": "g"}],
           "transition": "ghost"}
        ]})");
    CheckResult result;
    workflow::checkWorkflow(doc, result);
    EXPECT_NE(findRule(result, "dangling-function"), nullptr);
    EXPECT_NE(findRule(result, "dangling-transition"), nullptr);
    EXPECT_NE(findRule(result, "unused-function"), nullptr);
}

TEST(CheckWorkflow, ReportsCyclesWithTheFullPath)
{
    auto doc = json::parse(R"({
        "functions": [{"name": "f", "operation": "true"}],
        "states": [
          {"name": "a", "type": "operation",
           "actions": [{"functionRef": "f"}], "transition": "b"},
          {"name": "b", "type": "operation",
           "actions": [{"functionRef": "f"}], "transition": "a"}
        ]})");
    CheckResult result;
    workflow::checkWorkflow(doc, result);
    const check::Diagnostic *cycle = findRule(result, "workflow-cycle");
    ASSERT_NE(cycle, nullptr);
    EXPECT_NE(cycle->message.find("a.0.f -> b.0.f -> a.0.f"),
              std::string::npos);
}

TEST(CheckJournal, FlagsRoundsThatDisagreeWithTheSpec)
{
    std::string text =
        R"({"type":"spec","spec":{"backend":"sim","workload":"bfs"}})"
        "\n"
        R"({"type":"round","run":0,"records":[{"workload":"nw",)"
        R"("failure":"none"}]})"
        "\n";
    CheckResult result;
    record::checkJournalText(text, result);
    const check::Diagnostic *mismatch =
        findRule(result, "journal-spec-mismatch");
    ASSERT_NE(mismatch, nullptr);
    EXPECT_EQ(mismatch->severity, Severity::Error);
    EXPECT_EQ(mismatch->line, 2u);
}

TEST(CheckJournal, FlagsRoundAfterDoneAndOverrun)
{
    std::string text =
        R"({"type":"spec","spec":{"backend":"sim","workload":"bfs",)"
        R"("experiment":{"max":1}}})"
        "\n"
        R"({"type":"round","run":0,"records":[]})"
        "\n"
        R"({"type":"done"})"
        "\n"
        R"({"type":"round","run":1,"records":[]})"
        "\n";
    CheckResult result;
    record::checkJournalText(text, result);
    const check::Diagnostic *order = findRule(result, "journal-order");
    ASSERT_NE(order, nullptr);
    EXPECT_EQ(order->severity, Severity::Error);
    EXPECT_EQ(order->line, 4u);
    EXPECT_NE(findRule(result, "journal-overrun"), nullptr);
}

TEST(SniffArtifact, ClassifiesByExtensionAndContent)
{
    auto run_spec = json::parse(R"({"backend": "sim"})");
    EXPECT_EQ(check::sniffArtifact("x.json", "", &run_spec),
              ArtifactKind::RunSpec);
    auto fault = json::parse(R"({"crash": 0.1})");
    EXPECT_EQ(check::sniffArtifact("x.json", "", &fault),
              ArtifactKind::FaultSpec);
    auto wf = json::parse(R"({"states": []})");
    EXPECT_EQ(check::sniffArtifact("x.json", "", &wf),
              ArtifactKind::Workflow);
    EXPECT_EQ(check::sniffArtifact("x.jsonl", "", nullptr),
              ArtifactKind::Journal);
    EXPECT_EQ(check::sniffArtifact("x.md", "", nullptr),
              ArtifactKind::Metadata);
    auto mystery = json::parse(R"({"who": "knows"})");
    EXPECT_EQ(check::sniffArtifact("x.json", "", &mystery),
              ArtifactKind::Unknown);
}

TEST(SniffArtifact, SchemaTagValueTellsBundlesAndReportsApart)
{
    auto bundle =
        json::parse(R"({"schema": "sharp-baseline-bundle-v1"})");
    EXPECT_EQ(check::sniffArtifact("x.json", "", &bundle),
              ArtifactKind::BaselineBundle);
    auto report =
        json::parse(R"({"schema": "sharp-compare-report-v1"})");
    EXPECT_EQ(check::sniffArtifact("x.json", "", &report),
              ArtifactKind::CompareReport);
    // An unknown schema tag falls back to the calibration baseline,
    // whose checker names the expected tag in its diagnostic.
    auto unknown = json::parse(R"({"schema": "who-knows-v9"})");
    EXPECT_EQ(check::sniffArtifact("x.json", "", &unknown),
              ArtifactKind::Baseline);

    EXPECT_STREQ(check::artifactKindName(ArtifactKind::BaselineBundle),
                 "baseline bundle");
    EXPECT_STREQ(check::artifactKindName(ArtifactKind::CompareReport),
                 "compare report");
}

// ---- Seeded defect fixtures: one per defect class. Each pin covers
// ---- the rule, the severity, the source location, and the exit code.

TEST(Fixtures, MalformedJsonIsALocatedSyntaxError)
{
    CheckResult result;
    check::checkArtifactFile(fixture("malformed.json"), result);
    EXPECT_EQ(result.exitCode(), 2);
    const check::Diagnostic *syntax = findRule(result, "json-syntax");
    ASSERT_NE(syntax, nullptr);
    EXPECT_EQ(syntax->severity, Severity::Error);
    EXPECT_EQ(syntax->line, 4u);
    EXPECT_EQ(syntax->column, 1u);
}

TEST(Fixtures, UnknownFieldIsAWarningWithAHint)
{
    CheckResult result;
    ArtifactKind kind =
        check::checkArtifactFile(fixture("unknown_field.json"), result);
    EXPECT_EQ(kind, ArtifactKind::FaultSpec);
    EXPECT_EQ(result.exitCode(), 1);
    const check::Diagnostic *unknown =
        findRule(result, "unknown-field");
    ASSERT_NE(unknown, nullptr);
    EXPECT_EQ(unknown->severity, Severity::Warning);
    EXPECT_EQ(unknown->line, 4u);
    EXPECT_EQ(unknown->hint, "did you mean 'slow_factor'?");
}

TEST(Fixtures, ScenarioParamTypoIsAWarningWithAFamilyAwareHint)
{
    CheckResult result;
    ArtifactKind kind =
        check::checkArtifactFile(fixture("scenario_typo.json"), result);
    EXPECT_EQ(kind, ArtifactKind::Scenario);
    EXPECT_EQ(result.exitCode(), 1);
    const check::Diagnostic *unknown =
        findRule(result, "unknown-field");
    ASSERT_NE(unknown, nullptr);
    EXPECT_EQ(unknown->severity, Severity::Warning);
    EXPECT_EQ(unknown->line, 8u);
    EXPECT_EQ(unknown->column, 14u);
    EXPECT_EQ(unknown->hint, "did you mean 'period'?");
}

TEST(Fixtures, DanglingWorkloadIsALocatedError)
{
    CheckResult result;
    ArtifactKind kind = check::checkArtifactFile(
        fixture("dangling_workload.json"), result);
    EXPECT_EQ(kind, ArtifactKind::RunSpec);
    EXPECT_EQ(result.exitCode(), 2);
    const check::Diagnostic *dangling =
        findRule(result, "dangling-workload");
    ASSERT_NE(dangling, nullptr);
    EXPECT_EQ(dangling->severity, Severity::Error);
    EXPECT_EQ(dangling->line, 3u);
    EXPECT_EQ(dangling->hint, "did you mean 'hotspot'?");
}

TEST(Fixtures, TruncatedJournalIsAWarningOnTheTornLine)
{
    CheckResult result;
    ArtifactKind kind =
        check::checkArtifactFile(fixture("truncated.jsonl"), result);
    EXPECT_EQ(kind, ArtifactKind::Journal);
    EXPECT_EQ(result.exitCode(), 1);
    const check::Diagnostic *torn =
        findRule(result, "truncated-journal");
    ASSERT_NE(torn, nullptr);
    EXPECT_EQ(torn->severity, Severity::Warning);
    EXPECT_EQ(torn->line, 4u);
}

TEST(Fixtures, StaleBaselineCellWarnsAndMissingCellErrors)
{
    CheckResult result;
    ArtifactKind kind = check::checkArtifactFile(
        fixture("stale_baseline.json"), result);
    EXPECT_EQ(kind, ArtifactKind::Baseline);
    EXPECT_EQ(result.exitCode(), 2);
    const check::Diagnostic *stale =
        findRule(result, "stale-baseline-cell");
    ASSERT_NE(stale, nullptr);
    EXPECT_EQ(stale->severity, Severity::Warning);
    const check::Diagnostic *missing =
        findRule(result, "missing-baseline-cell");
    ASSERT_NE(missing, nullptr);
    EXPECT_EQ(missing->severity, Severity::Error);
    EXPECT_NE(missing->message.find("ks/lognormal"),
              std::string::npos);
}

TEST(CheckMetadata, WarnsWhenCachedRuleRanWithEngineDisabled)
{
    // Metadata recorded with the statistics engine switched off, from
    // before the switch was removed: the key is ignored on load, and
    // the check says so with one note at the entry's line — no
    // warning, since the engine never changed a result.
    launcher::ReproSpec spec;
    spec.backendKind = "sim";
    spec.workload = "hotspot";
    spec.machines = {"machine1"};
    spec.experiment.ruleName = "ks";
    record::RunLog log("hotspot");
    launcher::annotate(log, spec);
    log.setConfigEntry("repro_stats_cache", "off");
    std::string text = log.toMetadata().render();

    CheckResult result;
    check::checkArtifactText("run.md", text, ArtifactKind::Unknown,
                             result);
    EXPECT_EQ(result.exitCode(), 0) << result.renderText();
    ASSERT_EQ(result.diagnostics().size(), 1u) << result.renderText();
    const check::Diagnostic &note = result.diagnostics().front();
    EXPECT_EQ(note.rule, "obsolete-stats-cache");
    EXPECT_EQ(note.severity, Severity::Note);
    size_t line = 1 + static_cast<size_t>(std::count(
                          text.begin(),
                          text.begin() + static_cast<long>(
                                             text.find("repro_stats_cache")),
                          '\n'));
    EXPECT_EQ(note.line, line);
}

TEST(CheckMetadata, NoWarningForRulesWithoutACachedFastPath)
{
    // Every rule, with or without engine-backed statistics: current
    // metadata records no engine state, and `sharp check` is silent.
    for (const char *rule : {"fixed", "ks"}) {
        launcher::ReproSpec spec;
        spec.backendKind = "sim";
        spec.workload = "hotspot";
        spec.machines = {"machine1"};
        spec.experiment.ruleName = rule;
        record::RunLog log("hotspot");
        launcher::annotate(log, spec);
        std::string text = log.toMetadata().render();
        EXPECT_EQ(text.find("repro_stats_cache"), std::string::npos);

        CheckResult result;
        check::checkArtifactText("run.md", text, ArtifactKind::Unknown,
                                 result);
        EXPECT_TRUE(result.clean()) << rule << ": "
                                    << result.renderText();
    }
}

TEST(CheckRunSpec, ObsoleteStatsCacheKeyIsANoteNotATypo)
{
    // A legacy run spec, and the same spec as a journal header: the
    // retired key loads, gets one note at its own line, and is not
    // reported as an unknown field.
    const std::string spec_text = R"({
  "backend": "sim", "workload": "hotspot", "machines": ["machine1"],
  "experiment": {"rule": "ks", "max": 100},
  "stats_cache": false
})";
    CheckResult spec_result;
    check::checkArtifactText("legacy.json", spec_text,
                             ArtifactKind::Unknown, spec_result);
    EXPECT_EQ(spec_result.exitCode(), 0) << spec_result.renderText();
    ASSERT_EQ(spec_result.diagnostics().size(), 1u)
        << spec_result.renderText();
    EXPECT_EQ(spec_result.diagnostics()[0].rule, "obsolete-stats-cache");
    EXPECT_EQ(spec_result.diagnostics()[0].severity, Severity::Note);
    EXPECT_EQ(spec_result.diagnostics()[0].line, 4u);
    EXPECT_NO_THROW(launcher::ReproSpec::fromJson(json::parse(spec_text)));

    json::Value spec = json::parse(spec_text);
    json::Value header = json::Value::makeObject();
    header.set("type", "spec");
    header.set("spec", spec);
    CheckResult journal_result;
    check::checkArtifactText("legacy.jsonl", json::write(header) + "\n",
                             ArtifactKind::Unknown, journal_result);
    EXPECT_EQ(findRule(journal_result, "unknown-field"), nullptr)
        << journal_result.renderText();
    const check::Diagnostic *note =
        findRule(journal_result, "obsolete-stats-cache");
    ASSERT_NE(note, nullptr) << journal_result.renderText();
    EXPECT_EQ(note->severity, Severity::Note);
    EXPECT_EQ(note->line, 1u);
}

TEST(CheckMetadata, FlagsUnknownSimdBackendWithSuggestion)
{
    launcher::ReproSpec spec;
    spec.backendKind = "sim";
    spec.workload = "hotspot";
    spec.machines = {"machine1"};
    spec.experiment.ruleName = "ks";
    record::RunLog log("hotspot");
    launcher::annotate(log, spec);
    record::MetadataDocument doc = log.toMetadata();

    // Whatever the dispatch layer recorded is a known name: quiet.
    CheckResult clean;
    check::checkArtifactText("run.md", doc.render(),
                             ArtifactKind::Unknown, clean);
    EXPECT_EQ(findRule(clean, "unknown-simd-backend"), nullptr);

    // An edited or foreign-build name is an error, with a did-you-mean
    // hint when it is one typo away from a real backend.
    doc.set("Configuration", "repro_simd_backend", "avx512f");
    CheckResult result;
    check::checkArtifactText("run.md", doc.render(),
                             ArtifactKind::Unknown, result);
    const check::Diagnostic *bad =
        findRule(result, "unknown-simd-backend");
    ASSERT_NE(bad, nullptr);
    EXPECT_EQ(bad->severity, Severity::Error);
    EXPECT_NE(bad->message.find("'avx512f'"), std::string::npos);
    EXPECT_NE(bad->hint.find("did you mean 'avx512'?"),
              std::string::npos);
    EXPECT_GT(bad->line, 0u);
}

// ---- The CLI command.

struct CliResult
{
    int status;
    std::string out;
    std::string err;
};

CliResult
runCheck(const std::vector<std::string> &argv)
{
    std::ostringstream out, err;
    int status = cli::runCli(argv, out, err);
    return {status, out.str(), err.str()};
}

TEST(CliCheck, CleanExamplesExitZero)
{
    auto result = runCheck({"check", example("run_spec.json"),
                            example("fault_spec.json"),
                            example("workflow.json")});
    EXPECT_EQ(result.status, 0) << result.out;
    EXPECT_NE(result.out.find("run spec: ok"), std::string::npos);
    EXPECT_NE(result.out.find("0 errors, 0 warnings"),
              std::string::npos);
}

TEST(CliCheck, DefectiveFixtureExitsTwoWithLocatedDiagnostic)
{
    auto result =
        runCheck({"check", fixture("dangling_workload.json")});
    EXPECT_EQ(result.status, 2);
    EXPECT_NE(result.out.find("dangling_workload.json:3:"),
              std::string::npos);
    EXPECT_NE(result.out.find("did you mean 'hotspot'?"),
              std::string::npos);
}

TEST(CliCheck, WarningOnlyFixtureExitsOne)
{
    auto result = runCheck({"check", fixture("unknown_field.json")});
    EXPECT_EQ(result.status, 1);
}

TEST(CliCheck, JsonFormatIsMachineReadable)
{
    auto result = runCheck({"check", fixture("unknown_field.json"),
                            "--format", "json"});
    EXPECT_EQ(result.status, 1);
    auto doc = json::parse(result.out);
    EXPECT_EQ(doc.getLong("errors", -1), 0);
    EXPECT_EQ(doc.getLong("warnings", -1), 1);
    EXPECT_EQ(doc.getLong("artifacts", -1), 1);
    const json::Value *diagnostics = doc.find("diagnostics");
    ASSERT_NE(diagnostics, nullptr);
    ASSERT_EQ(diagnostics->size(), 1u);
    EXPECT_EQ(diagnostics->asArray()[0].getString("rule", ""),
              "unknown-field");
    EXPECT_EQ(diagnostics->asArray()[0].getLong("line", 0), 4);
}

TEST(CliCheck, MalformedBaselineBundleExitsTwoWithBothDefects)
{
    auto result = runCheck({"check", fixture("bad_bundle.json")});
    EXPECT_EQ(result.status, 2) << result.out;
    EXPECT_NE(result.out.find("unsorted-samples"), std::string::npos);
    EXPECT_NE(result.out.find("inconsistent-count"),
              std::string::npos);
}

TEST(CliCheck, CompareReportArtifactIsRecognized)
{
    auto result = runCheck(
        {"check", std::string(SHARP_SOURCE_DIR) +
                      "/tests/fixtures/compare/golden_report.json"});
    EXPECT_EQ(result.status, 0) << result.out;
    EXPECT_NE(result.out.find("compare report: ok"),
              std::string::npos);
}

TEST(CliCheck, MissingFileIsAnIoError)
{
    auto result = runCheck({"check", "/no/such/file.json"});
    EXPECT_EQ(result.status, 2);
    EXPECT_NE(result.out.find("io-error"), std::string::npos);
}

TEST(CliCheck, RequiresAPath)
{
    auto result = runCheck({"check"});
    EXPECT_EQ(result.status, 2);
}

TEST(CliCheck, RejectsUnknownFormat)
{
    auto result = runCheck(
        {"check", example("run_spec.json"), "--format", "yaml"});
    EXPECT_EQ(result.status, 2);
}

TEST(CliCheck, IntegerFieldsRejectFractionsOutOfRangeAndNonNumbers)
{
    // Integer fields go through one check: a fraction, a value
    // below the field's minimum or above 2^53, or a non-number gets
    // one out-of-range error at the field's line, and none reaches a
    // loader's integer conversion. Only rejected values are used, so
    // nothing here starts a process.
    const std::string daemon =
        std::string("{\"schema\": \"") + serve::daemonStateSchema +
        "\", \"socket\": \"s.sock\",\n";
    const std::string experiment = "{\"rule\": \"fixed\",\n";
    const std::string spec =
        "{\"backend\": \"sim\", \"workload\": \"bfs\",\n";
    const std::string retry = "{\"backoff\": 0.5,\n";
    const std::string fault = "{\"crash\": 0.1,\n";
    struct Row
    {
        std::string prefix;
        std::string key;
        std::string value;
    };
    const std::vector<Row> rows = {
        {experiment, "min", "30.5"},
        {experiment, "max", "1e300"},
        {experiment, "warmup", "-1"},
        {experiment, "max", "\"1000\""},
        {spec, "concurrency", "0"},
        {spec, "jobs", "2.5"},
        {spec, "max_failures", "1e300"},
        {spec, "concurrency", "true"},
        {spec, "day", "2.7"},
        {spec, "day", "1e300"},
        {retry, "attempts", "2.5"},
        {retry, "attempts", "0"},
        {retry, "attempts", "1e16"},
        {fault, "incarnation", "1e300"},
        {fault, "incarnation", "0.5"},
        {daemon, "shards", "1e300"},
        {daemon, "shards", "0"},
        {daemon, "pid", "-3"},
        {daemon, "max_failovers", "1.5"},
        {daemon, "max_queued_per_tenant", "null"},
    };
    std::string path = ::testing::TempDir() + "sharp_integer_field.json";
    for (const Row &row : rows) {
        std::string where = row.key + "=" + row.value;
        {
            std::ofstream out(path);
            out << row.prefix << "  \"" << row.key << "\": " << row.value
                << "\n}\n";
        }
        auto result = runCheck({"check", path});
        EXPECT_EQ(result.status, 2) << where << "\n" << result.out;
        size_t first = result.out.find("[out-of-range]");
        EXPECT_NE(first, std::string::npos) << where << "\n" << result.out;
        EXPECT_EQ(result.out.find("[out-of-range]", first + 1),
                  std::string::npos)
            << where << "\n" << result.out;
        EXPECT_NE(result.out.find(path + ":2:"), std::string::npos)
            << where << "\n" << result.out;
    }

    // `sharp run` stops at the same located error instead of
    // converting 1e300 to an integer.
    {
        std::ofstream out(path);
        out << spec << "  \"experiment\": {\"rule\": \"fixed\",\n"
            << "    \"max\": 1e300}\n}\n";
    }
    auto ran = runCheck({"run", "--config", path});
    EXPECT_EQ(ran.status, 1) << ran.out << ran.err;
    EXPECT_NE(ran.err.find(path + ":3:12: error: 'max'"), std::string::npos)
        << ran.err;
    EXPECT_NE(ran.err.find("[out-of-range]"), std::string::npos) << ran.err;
    std::remove(path.c_str());
}

TEST(CliCheck, FractionalRuleCountsAreErrors)
{
    // A rule count is an integer like every other count, so `sharp
    // check` rejects 2.5 as an error.
    std::string path = ::testing::TempDir() + "sharp_rule_count.json";
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"fixed", "count"}, {"ks", "min"}, {"meta", "interval"}};
    for (const auto &[rule, key] : cases) {
        {
            std::ofstream out(path);
            out << "{\"backend\": \"sim\", \"workload\": \"bfs\",\n"
                << "  \"experiment\": {\"rule\": \"" << rule
                << "\", \"params\": {\"" << key << "\": 2.5}}\n}\n";
        }
        auto result = runCheck({"check", path});
        EXPECT_EQ(result.status, 2) << rule << "\n" << result.out;
        EXPECT_NE(result.out.find("parameter '" + key +
                                  "' must be an integer in [0, 2^53] "
                                  "[bad-rule-params]"),
                  std::string::npos)
            << rule << "\n" << result.out;
    }
    std::remove(path.c_str());
}

TEST(CliCheck, RunReportsARejectedSpecAtItsFileLineAndColumn)
{
    // `sharp run --config` and `--fault` print what `sharp check`
    // prints for the same file, and exit 1 before anything runs.
    std::string path = ::testing::TempDir() + "sharp_big_max.json";
    {
        std::ofstream out(path);
        out << "{\n"
               "  \"backend\": \"sim\",\n"
               "  \"workload\": \"bfs\",\n"
               "  \"experiment\": {\n"
               "    \"rule\": \"fixed\",\n"
               "    \"max\": 1e300\n"
               "  }\n"
               "}\n";
    }
    const std::string located =
        path + ":6:12: error: 'max' must be an integer in [1, 2^53] "
               "[out-of-range]\n";
    auto checked = runCheck({"check", path});
    EXPECT_EQ(checked.status, 2);
    EXPECT_NE(checked.out.find(located), std::string::npos)
        << checked.out;
    auto ran = runCheck({"run", "--config", path});
    EXPECT_EQ(ran.status, 1);
    EXPECT_EQ(ran.err, located);
    EXPECT_EQ(ran.out, "");

    {
        std::ofstream out(path);
        out << "{\"crash\": 0.1,\n  \"incarnation\": 0.5\n}\n";
    }
    auto faulted = runCheck({"run", "--workload", "bfs", "--fault", path});
    EXPECT_EQ(faulted.status, 1);
    EXPECT_NE(faulted.err.find(path + ":2:18: error: 'incarnation'"),
              std::string::npos)
        << faulted.err;
    EXPECT_EQ(faulted.out, "");
    std::remove(path.c_str());
}

TEST(CliCheck, RunReportsMalformedJsonAtItsFileLineAndColumn)
{
    // A --config or --fault file that is not JSON gets the located
    // json-syntax line `sharp check` prints for it, not a bare parse
    // error, and exits 1 before anything runs.
    std::string path = ::testing::TempDir() + "sharp_bad_syntax.json";
    {
        std::ofstream out(path);
        out << "{\"crash\": 0.1,\n  \"seed\": }\n";
    }
    const std::string located =
        path + ":2:11: error: JSON parse error at line 2, column 11: "
               "unexpected character [json-syntax]\n";
    auto checked = runCheck({"check", path});
    EXPECT_EQ(checked.status, 2);
    EXPECT_NE(checked.out.find(located), std::string::npos)
        << checked.out;
    auto configured = runCheck({"run", "--config", path});
    EXPECT_EQ(configured.status, 1);
    EXPECT_EQ(configured.err, located);
    EXPECT_EQ(configured.out, "");
    auto faulted = runCheck({"run", "--workload", "bfs", "--fault", path});
    EXPECT_EQ(faulted.status, 1);
    EXPECT_EQ(faulted.err, located);
    EXPECT_EQ(faulted.out, "");
    std::remove(path.c_str());
}

// ---- `sharp serve` artifacts: the campaign queue journal and the
// ---- daemon state file get the same fixture treatment as the rest.

TEST(Fixtures, QueueUnknownEventIsLocatedWithADidYouMeanHint)
{
    CheckResult result;
    ArtifactKind kind = check::checkArtifactFile(
        fixture("queue_unknown_event.jsonl"), result);
    EXPECT_EQ(kind, ArtifactKind::QueueJournal);
    EXPECT_EQ(result.exitCode(), 2);

    const check::Diagnostic *unknown =
        findRule(result, "unknown-event");
    ASSERT_NE(unknown, nullptr);
    EXPECT_EQ(unknown->severity, Severity::Error);
    EXPECT_EQ(unknown->line, 3u);
    EXPECT_EQ(unknown->column, 1u);
    EXPECT_EQ(unknown->hint, "did you mean 'done'?");

    // Line 6 cancels a campaign that line 5 already completed.
    const check::Diagnostic *order = findRule(result, "queue-order");
    ASSERT_NE(order, nullptr);
    EXPECT_EQ(order->severity, Severity::Error);
    EXPECT_EQ(order->line, 6u);
    EXPECT_NE(order->message.find("after its terminal"),
              std::string::npos);
}

TEST(Fixtures, TornQueueTailIsAWarningWithARepairHint)
{
    CheckResult result;
    ArtifactKind kind =
        check::checkArtifactFile(fixture("queue_torn.jsonl"), result);
    EXPECT_EQ(kind, ArtifactKind::QueueJournal);
    EXPECT_EQ(result.exitCode(), 1);
    const check::Diagnostic *torn =
        findRule(result, "truncated-queue");
    ASSERT_NE(torn, nullptr);
    EXPECT_EQ(torn->severity, Severity::Warning);
    EXPECT_EQ(torn->line, 4u);
    EXPECT_NE(torn->hint.find("restart `sharp serve`"),
              std::string::npos);
}

TEST(Fixtures, DaemonStateTypoIsAWarningWithAHint)
{
    CheckResult result;
    ArtifactKind kind = check::checkArtifactFile(
        fixture("daemon_state_typo.json"), result);
    EXPECT_EQ(kind, ArtifactKind::DaemonState);
    EXPECT_EQ(result.exitCode(), 1);
    const check::Diagnostic *unknown =
        findRule(result, "unknown-field");
    ASSERT_NE(unknown, nullptr);
    EXPECT_EQ(unknown->severity, Severity::Warning);
    EXPECT_EQ(unknown->line, 6u);
    EXPECT_EQ(unknown->hint,
              "did you mean 'round_deadline_seconds'?");
}

TEST(CliCheck, QueueFixturesGoThroughTheCliToo)
{
    auto clean = runCheck({"check", fixture("queue_clean.jsonl")});
    EXPECT_EQ(clean.status, 0) << clean.out;
    EXPECT_NE(clean.out.find("queue journal: ok"),
              std::string::npos);

    auto unknown = runCheck(
        {"check", fixture("queue_unknown_event.jsonl")});
    EXPECT_EQ(unknown.status, 2);
    EXPECT_NE(unknown.out.find("unknown-event"), std::string::npos);

    auto state = runCheck({"check", fixture("daemon_state_typo.json")});
    EXPECT_EQ(state.status, 1);
    EXPECT_NE(state.out.find("unknown-field"), std::string::npos);
}

// ---- Did-you-mean cutoff.

TEST(SuggestName, DistanceTwoIsTheCutoff)
{
    const std::vector<std::string> known = {"warmup"};
    // distance 1 and 2 suggest; distance 3 stays silent.
    EXPECT_EQ(check::suggestName("warmups", known),
              "did you mean 'warmup'?");
    EXPECT_EQ(check::suggestName("warm", known),
              "did you mean 'warmup'?");
    EXPECT_EQ(check::suggestName("war", known), "");
}

TEST(SuggestName, PicksTheClosestCandidate)
{
    EXPECT_EQ(check::suggestName("roundz",
                                 {"rounds", "bounds", "round_max"}),
              "did you mean 'rounds'?");
    EXPECT_EQ(check::suggestName("", {"a"}),
              "did you mean 'a'?");
    EXPECT_EQ(check::suggestName("x", {}), "");
}

// ---- JSON locations on awkward inputs.

TEST(JsonLocation, CrlfLineEndingsKeepColumnsHonest)
{
    // \r\n ends the line; the value on line 2 starts at column 8.
    json::Value doc = json::parse("{\r\n  \"a\": true\r\n}\r\n");
    const json::Value *a = doc.find("a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->location().line, 2u);
    EXPECT_EQ(a->location().column, 8u);
}

TEST(JsonLocation, UnterminatedFinalLineErrorIsLocated)
{
    // The file ends mid-string with no trailing newline.
    try {
        json::parse("{\n  \"key\": \"never closed");
        FAIL() << "expected ParseError";
    } catch (const json::ParseError &error) {
        EXPECT_EQ(error.line, 2u);
        EXPECT_GE(error.column, 10u);
    }
}

TEST(JsonLocation, CrlfParseErrorPointsAtTheRightColumn)
{
    try {
        json::parse("{\r\n  \"a\": !\r\n}");
        FAIL() << "expected ParseError";
    } catch (const json::ParseError &error) {
        EXPECT_EQ(error.line, 2u);
        EXPECT_EQ(error.column, 8u);
    }
}

// ---- Campaign-level audit (sharp check --campaign).

std::string
campaign(const std::string &name)
{
    return std::string(SHARP_SOURCE_DIR) +
           "/tests/fixtures/campaign/" + name;
}

check::CheckResult
auditCampaign(const std::string &name)
{
    check::CheckResult result;
    check::checkCampaignDir(campaign(name), result);
    return result;
}

TEST(CheckCampaign, CleanEndToEndStateDirExitsZero)
{
    check::CheckResult result = auditCampaign("clean");
    EXPECT_EQ(result.errorCount(), 0u) << result.renderText();
    EXPECT_EQ(result.warningCount(), 0u) << result.renderText();
    EXPECT_EQ(result.exitCode(), 0);
}

TEST(CheckCampaign, MissingResultIsAnError)
{
    check::CheckResult result = auditCampaign("missing_result");
    const check::Diagnostic *finding =
        findRule(result, "campaign-missing-result");
    ASSERT_NE(finding, nullptr) << result.renderText();
    EXPECT_EQ(finding->severity, check::Severity::Error);
    EXPECT_EQ(result.exitCode(), 2);
}

TEST(CheckCampaign, JournalWithoutDoneMarkerDiverges)
{
    check::CheckResult result = auditCampaign("journal_divergence");
    const check::Diagnostic *finding =
        findRule(result, "campaign-journal-divergence");
    ASSERT_NE(finding, nullptr) << result.renderText();
    EXPECT_EQ(finding->severity, check::Severity::Error);
    EXPECT_EQ(result.exitCode(), 2);
}

TEST(CheckCampaign, FailoverCountBeyondDaemonCapIsFlagged)
{
    check::CheckResult result = auditCampaign("failover_overrun");
    const check::Diagnostic *finding =
        findRule(result, "campaign-failover-overrun");
    ASSERT_NE(finding, nullptr) << result.renderText();
    EXPECT_EQ(finding->severity, check::Severity::Error);
    EXPECT_EQ(result.exitCode(), 2);
}

TEST(CheckCampaign, QueueSpecDisagreeingWithJournalIsFlagged)
{
    check::CheckResult result = auditCampaign("spec_mismatch");
    const check::Diagnostic *finding =
        findRule(result, "campaign-spec-mismatch");
    ASSERT_NE(finding, nullptr) << result.renderText();
    EXPECT_EQ(finding->severity, check::Severity::Error);
    EXPECT_NE(finding->message.find("seed"), std::string::npos);
    EXPECT_EQ(result.exitCode(), 2);
}

TEST(CheckCampaign, ReportMetadataDisagreeingWithSpecIsFlagged)
{
    check::CheckResult result = auditCampaign("metadata_mismatch");
    const check::Diagnostic *finding =
        findRule(result, "campaign-metadata-mismatch");
    ASSERT_NE(finding, nullptr) << result.renderText();
    EXPECT_EQ(finding->severity, check::Severity::Error);
    EXPECT_EQ(result.exitCode(), 2);
}

TEST(CheckCampaign, OrphanCampaignDirWarnsAndNotesSkippedFiles)
{
    check::CheckResult result = auditCampaign("orphan_dir");
    const check::Diagnostic *orphan =
        findRule(result, "campaign-orphan-dir");
    ASSERT_NE(orphan, nullptr) << result.renderText();
    EXPECT_EQ(orphan->severity, check::Severity::Warning);
    const check::Diagnostic *skipped =
        findRule(result, "skipped-files");
    ASSERT_NE(skipped, nullptr) << result.renderText();
    EXPECT_EQ(skipped->severity, check::Severity::Note);
    EXPECT_EQ(result.exitCode(), 1);
}

TEST(CheckCampaign, MissingQueueJournalIsFatal)
{
    check::CheckResult result;
    check::checkCampaignDir("/no/such/state/dir", result);
    EXPECT_NE(findRule(result, "campaign-missing-queue"), nullptr);
    EXPECT_EQ(result.exitCode(), 2);
}

TEST(CliCheck, CampaignFlagRunsTheAudit)
{
    auto clean = runCheck({"check", "--campaign", campaign("clean")});
    EXPECT_EQ(clean.status, 0) << clean.out;
    EXPECT_NE(clean.out.find("campaign audit"), std::string::npos);

    auto broken =
        runCheck({"check", "--campaign", campaign("spec_mismatch")});
    EXPECT_EQ(broken.status, 2);
    EXPECT_NE(broken.out.find("campaign-spec-mismatch"),
              std::string::npos);

    auto missing = runCheck({"check", "--campaign"});
    EXPECT_EQ(missing.status, 2);
}

TEST(CliCheck, DirectoryExpansionNotesSkippedFiles)
{
    // The orphan fixture's ghost dir holds a .txt; `check DIR` must
    // fold it into one informational note, not an error.
    auto result = runCheck(
        {"check", campaign("orphan_dir") + "/campaigns/ghost"});
    EXPECT_EQ(result.status, 0) << result.out;
    EXPECT_NE(result.out.find("skipped 1 non-artifact file"),
              std::string::npos);
}

} // anonymous namespace
