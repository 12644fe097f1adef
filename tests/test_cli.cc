/**
 * @file
 * Tests for the `sharp` CLI: argument parsing and every command,
 * driven through string streams and temp files.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/cli.hh"
#include "launcher/reproduce.hh"
#include "record/metadata.hh"
#include "simd/dispatch.hh"
#include "util/fs.hh"

namespace
{

using namespace sharp::cli;
namespace fs = std::filesystem;

/** Run the CLI and capture output/status. */
struct CliResult
{
    int status;
    std::string out;
    std::string err;
};

CliResult
run(const std::vector<std::string> &argv)
{
    std::ostringstream out, err;
    int status = runCli(argv, out, err);
    return {status, out.str(), err.str()};
}

using sharp::util::readFileText;

/** Metadata text minus its wall-clock `written_at` stamp. */
std::string
metadataWithoutClock(const std::string &path)
{
    std::istringstream in(readFileText(path));
    std::string line, kept;
    while (std::getline(in, line)) {
        if (line.find("**written_at**") == std::string::npos)
            kept += line + "\n";
    }
    return kept;
}

TEST(ParseArgs, CommandPositionalsAndFlags)
{
    ParsedArgs args = parseArgs({"compare", "a.csv", "b.csv",
                                 "--metric", "execution_time",
                                 "--html", "out.html"});
    EXPECT_EQ(args.command, "compare");
    ASSERT_EQ(args.positional.size(), 2u);
    EXPECT_EQ(args.positional[1], "b.csv");
    EXPECT_EQ(args.get("metric"), "execution_time");
    EXPECT_EQ(args.get("missing", "dflt"), "dflt");
}

TEST(ParseArgs, BareFlagsHaveEmptyValues)
{
    ParsedArgs args = parseArgs({"workflow", "spec.json", "--execute"});
    EXPECT_TRUE(args.has("execute"));
    EXPECT_EQ(args.get("execute"), "");
    EXPECT_FALSE(args.has("makefile"));
}

TEST(ParseArgs, FlagFollowedByFlagTakesNoValue)
{
    ParsedArgs args = parseArgs({"run", "--execute", "--max", "10"});
    EXPECT_TRUE(args.has("execute"));
    EXPECT_EQ(args.get("max"), "10");
}

TEST(ParseArgs, RejectsEmptyFlagName)
{
    EXPECT_THROW(parseArgs({"run", "--"}), std::invalid_argument);
}

TEST(Cli, HelpAndUnknownCommand)
{
    CliResult help = run({"help"});
    EXPECT_EQ(help.status, 0);
    EXPECT_NE(help.out.find("usage: sharp"), std::string::npos);

    CliResult unknown = run({"frobnicate"});
    EXPECT_EQ(unknown.status, 2);
    EXPECT_NE(unknown.err.find("unknown command"), std::string::npos);

    CliResult empty = run({});
    EXPECT_EQ(empty.status, 2);
}

TEST(Cli, ListShowsRegistries)
{
    CliResult result = run({"list"});
    EXPECT_EQ(result.status, 0);
    EXPECT_NE(result.out.find("hotspot"), std::string::npos);
    EXPECT_NE(result.out.find("machine3"), std::string::npos);
    EXPECT_NE(result.out.find("ks"), std::string::npos);
    EXPECT_NE(result.out.find("meta"), std::string::npos);
}

TEST(Cli, RunRequiresWorkload)
{
    CliResult result = run({"run"});
    EXPECT_EQ(result.status, 2);
    EXPECT_NE(result.err.find("--workload"), std::string::npos);
}

TEST(Cli, RunProducesReportAndArtifacts)
{
    fs::path base = fs::temp_directory_path() / "sharp_cli_run";
    fs::path html = fs::temp_directory_path() / "sharp_cli_run.html";
    CliResult result =
        run({"run", "--workload", "bfs", "--machine", "machine1",
             "--rule", "ks", "--threshold", "0.1", "--max", "500",
             "--seed", "9", "--out", base.string(), "--html",
             html.string()});
    EXPECT_EQ(result.status, 0) << result.err;
    EXPECT_NE(result.out.find("collected"), std::string::npos);
    EXPECT_NE(result.out.find("Distribution report"),
              std::string::npos);
    EXPECT_TRUE(fs::exists(base.string() + ".csv"));
    EXPECT_TRUE(fs::exists(base.string() + ".md"));
    EXPECT_TRUE(fs::exists(html));

    // --- The saved metadata feeds `sharp reproduce`. ---
    CliResult repro = run({"reproduce", base.string() + ".md"});
    EXPECT_EQ(repro.status, 0) << repro.err;
    EXPECT_NE(repro.out.find("reproduced"), std::string::npos);

    // --- The saved CSV feeds `sharp report` and `sharp compare`. ---
    CliResult report = run({"report", base.string() + ".csv"});
    EXPECT_EQ(report.status, 0) << report.err;
    EXPECT_NE(report.out.find("Distribution report"),
              std::string::npos);

    CliResult compare = run({"compare", base.string() + ".csv",
                             base.string() + ".csv"});
    EXPECT_EQ(compare.status, 0) << compare.err;
    EXPECT_NE(compare.out.find("NAMD"), std::string::npos);
    // Self-comparison: speedup 1x.
    EXPECT_NE(compare.out.find("1x"), std::string::npos);

    fs::remove(base.string() + ".csv");
    fs::remove(base.string() + ".md");
    fs::remove(html);
}

TEST(Cli, ReproduceWarnsOnSimdBackendMismatch)
{
    // Results are bit-identical across backends by contract, so a
    // replay on different silicon succeeds — but the CLI flags that
    // timings were measured under a different kernel set.
    sharp::launcher::ReproSpec spec;
    spec.backendKind = "sim";
    spec.workload = "hotspot";
    spec.machines = {"machine1"};
    spec.experiment.ruleName = "fixed";
    spec.experiment.ruleParams = {{"count", 20}};
    spec.experiment.options.maxSamples = 200;
    sharp::record::RunLog log("hotspot");
    sharp::launcher::annotate(log, spec);
    sharp::record::MetadataDocument doc = log.toMetadata();

    fs::path path =
        fs::temp_directory_path() / "sharp_cli_simd_meta.md";
    doc.save(path.string());
    CliResult same = run({"reproduce", path.string()});
    EXPECT_EQ(same.status, 0) << same.err;
    EXPECT_EQ(same.err.find("SIMD backend"), std::string::npos);

    // Rewrite the provenance as if captured on another backend.
    std::string active(sharp::simd::activeBackendName());
    std::string other = active == "scalar" ? "avx2" : "scalar";
    doc.set("Configuration", "repro_simd_backend", other);
    doc.save(path.string());
    CliResult warned = run({"reproduce", path.string()});
    EXPECT_EQ(warned.status, 0) << warned.err;
    EXPECT_NE(warned.err.find("SIMD backend '" + other + "'"),
              std::string::npos);
    EXPECT_NE(warned.err.find(active), std::string::npos);
    fs::remove(path);
}

TEST(Cli, RunRejectsBadNumbers)
{
    // Each bad value exits 2 with a `run: --flag must be ...` line
    // instead of silently running with a default.
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"threshold", "abc"}, {"seed", "abc"},     {"seed", "-1"},
        {"max", "xyz"},       {"max", "1"},        {"day", "1x"},
        {"concurrency", "0"}, {"concurrency", "-3"}, {"jobs", "0"},
        {"retries", "-1"},    {"max-failures", "x"},
    };
    for (const auto &[flag, value] : cases) {
        CliResult result = run({"run", "--workload", "bfs", "--max",
                                "20", "--" + flag, value});
        EXPECT_EQ(result.status, 2) << flag << " " << value;
        EXPECT_NE(result.err.find("run: --" + flag + " must be"),
                  std::string::npos)
            << flag << " " << value << ": " << result.err;
    }
}

TEST(Cli, RunRejectsAFractionalRuleCountBeforeItsFirstRound)
{
    // A fractional count is an error, not a rounded count. The rule is
    // built before a journal opens, so nothing runs or is written.
    fs::path base = fs::temp_directory_path() / "sharp_cli_fractional";
    fs::path journal = base.string() + ".journal.jsonl";
    fs::path csv = base.string() + ".csv";
    fs::remove(journal);
    fs::remove(csv);
    CliResult result = run({"run", "--workload", "bfs", "--rule", "fixed",
                            "--count", "2.5", "--journal",
                            journal.string(), "--out", base.string()});
    EXPECT_EQ(result.status, 2) << result.out << result.err;
    EXPECT_NE(result.err.find(
                  "parameter 'count' must be an integer in [0, 2^53]"),
              std::string::npos)
        << result.err;
    EXPECT_EQ(result.out.find("collected"), std::string::npos);
    EXPECT_FALSE(fs::exists(journal));
    EXPECT_FALSE(fs::exists(csv));
}

TEST(Cli, RuleFlagsTheRuleRejectsAreBadFlagValues)
{
    // A value the rule rejects exits 2 with `cmd: reason`, like a value
    // that is not a number, on every command that builds a rule from
    // flags; nothing runs.
    const std::vector<std::vector<std::string>> commands = {
        {"run", "--workload", "bfs", "--max", "20"},
        {"suite", "--max", "20"},
        {"micro", "alu-ops", "--max", "20"},
    };
    const std::vector<std::vector<std::string>> flags = {
        {"--threshold", "-1"},
        {"--rule", "fixed", "--count", "2.5"},
        {"--rule", "no-such-rule"},
    };
    for (const auto &command : commands) {
        for (const auto &rule : flags) {
            // micro reads no --count, so its fixed rule would be valid.
            if (command[0] == "micro" && rule[1] == "fixed")
                continue;
            std::vector<std::string> argv = command;
            argv.insert(argv.end(), rule.begin(), rule.end());
            CliResult result = run(argv);
            EXPECT_EQ(result.status, 2) << command[0] << " " << rule.back();
            EXPECT_EQ(result.err.rfind(command[0] + ": ", 0), 0u)
                << result.err;
            EXPECT_EQ(result.err.find("error:"), std::string::npos)
                << result.err;
            EXPECT_EQ(result.out, "") << result.out;
        }
    }
    EXPECT_EQ(run({"run", "--workload", "bfs", "--threshold", "-1"}).err,
              "run: KsHalvesRule requires threshold in (0, 1]\n");

    // A spec file is not a flag: its bad rule parameters still exit 1
    // with the check's located error.
    fs::path spec = fs::temp_directory_path() / "sharp_cli_bad_rule.json";
    {
        std::ofstream out(spec);
        out << R"({"backend": "sim", "workload": "bfs",
 "experiment": {"rule": "ks", "params": {"threshold": -1}}})";
    }
    CliResult config = run({"run", "--config", spec.string()});
    EXPECT_EQ(config.status, 1) << config.err;
    EXPECT_NE(config.err.find(spec.string() + ":"), std::string::npos)
        << config.err;
    fs::remove(spec);
}

TEST(Cli, ReproduceWritesTheSameArtifactsAsRun)
{
    fs::path dir = fs::temp_directory_path() / "sharp_cli_repro_same";
    fs::remove_all(dir);
    fs::create_directories(dir);
    // 2^64 - 59 takes the same path: --seed, repro_seed and
    // `sharp check` all read the full unsigned width.
    for (std::string seed : {"3", "18446744073709551557"}) {
        std::string original = (dir / ("run" + seed)).string();
        std::string again = (dir / ("rep" + seed)).string();
        CliResult first =
            run({"run", "--workload", "hotspot", "--rule", "ks", "--max",
                 "60", "--seed", seed, "--out", original});
        ASSERT_EQ(first.status, 0) << first.err;
        CliResult repro = run({"reproduce", original + ".md", "--out",
                               again});
        ASSERT_EQ(repro.status, 0) << repro.err;

        EXPECT_EQ(readFileText(again + ".csv"),
                  readFileText(original + ".csv"));
        std::string metadata = metadataWithoutClock(original + ".md");
        EXPECT_NE(metadata.find("**repro_seed**: " + seed),
                  std::string::npos);
        EXPECT_NE(metadata.find("## System Under Test"),
                  std::string::npos);
        EXPECT_EQ(metadataWithoutClock(again + ".md"), metadata);

        CliResult check = run({"check", original + ".md"});
        EXPECT_NE(check.status, 2) << check.out;
    }
    fs::remove_all(dir);
}

TEST(Cli, LegacyStatsCacheSpecRunsChecksAndReproduces)
{
    // Specs and metadata from before the statistics engine lost its
    // off switch carry "stats_cache": false and repro_stats_cache. The
    // switch never changed a sample, so the key is ignored: the run
    // records no engine state, `sharp check` notes the retired key
    // without warning, and a reproduction drops it.
    fs::path dir = fs::temp_directory_path() / "sharp_cli_legacy_cache";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::string spec_text = readFileText(std::string(SHARP_SOURCE_DIR) +
                                         "/examples/run_spec.json");
    std::string legacy_text = spec_text;
    legacy_text.insert(legacy_text.find('{') + 1,
                       "\n  \"stats_cache\": false,");
    std::string spec = (dir / "spec.json").string();
    std::string legacy = (dir / "legacy.json").string();
    std::ofstream(spec) << spec_text;
    std::ofstream(legacy) << legacy_text;

    std::string base = (dir / "base").string();
    std::string run_legacy = (dir / "legacy").string();
    ASSERT_EQ(run({"run", "--config", spec, "--out", base}).status, 0);
    CliResult ran = run({"run", "--config", legacy, "--out", run_legacy});
    ASSERT_EQ(ran.status, 0) << ran.err;
    EXPECT_EQ(readFileText(run_legacy + ".csv"), readFileText(base + ".csv"));
    std::string metadata = metadataWithoutClock(base + ".md");
    EXPECT_EQ(metadataWithoutClock(run_legacy + ".md"), metadata);
    EXPECT_EQ(metadata.find("repro_stats_cache"), std::string::npos);

    // The metadata such a spec used to record.
    std::string recorded = readFileText(base + ".md");
    recorded.insert(recorded.find("- **repro_simd_backend**"),
                    "- **repro_stats_cache**: off\n");
    std::string legacy_md = (dir / "recorded.md").string();
    std::ofstream(legacy_md) << recorded;

    CliResult check = run({"check", legacy_md});
    EXPECT_EQ(check.status, 0) << check.out << check.err;
    size_t note = check.out.find("[obsolete-stats-cache]");
    ASSERT_NE(note, std::string::npos) << check.out;
    EXPECT_EQ(check.out.find("[obsolete-stats-cache]", note + 1),
              std::string::npos)
        << check.out;
    EXPECT_NE(check.out.find(": note: "), std::string::npos) << check.out;

    std::string again = (dir / "again").string();
    CliResult repro = run({"reproduce", legacy_md, "--out", again});
    ASSERT_EQ(repro.status, 0) << repro.err;
    EXPECT_EQ(readFileText(again + ".csv"), readFileText(base + ".csv"));
    EXPECT_EQ(metadataWithoutClock(again + ".md"), metadata);
    fs::remove_all(dir);
}

/** The one diagnostic line of @p output carrying @p rule; "" if not one. */
std::string
onlyFindingLine(const std::string &output, const std::string &rule)
{
    std::istringstream in(output);
    std::string line, found;
    size_t count = 0;
    while (std::getline(in, line)) {
        if (line.find("[" + rule + "]") != std::string::npos) {
            found = line;
            ++count;
        }
    }
    return count == 1 ? found : "";
}

TEST(Cli, LegacyCheckIntervalSpecRunsChecksReproducesAndResumes)
{
    // Specs, metadata and journals used to record "checkInterval", but
    // every campaign evaluated its stopping rule after every round
    // whatever it said. The key is ignored: a spec carrying it runs to
    // the same CSV and records nothing of it, `sharp check` notes it
    // once at its line, and recorded artifacts reproduce and resume
    // to the same CSV.
    fs::path dir = fs::temp_directory_path() / "sharp_cli_legacy_interval";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::string spec_text = readFileText(std::string(SHARP_SOURCE_DIR) +
                                         "/examples/run_spec.json");
    std::string legacy_text = spec_text;
    size_t max_key = legacy_text.find("\"max\": 1000,");
    ASSERT_NE(max_key, std::string::npos);
    size_t insert_at = legacy_text.find('\n', max_key) + 1;
    legacy_text.insert(insert_at, "    \"checkInterval\": 50,\n");
    size_t key_line = 1 + static_cast<size_t>(std::count(
                              legacy_text.begin(),
                              legacy_text.begin() +
                                  static_cast<long>(insert_at),
                              '\n'));
    std::string spec = (dir / "spec.json").string();
    std::string legacy = (dir / "legacy.json").string();
    std::ofstream(spec) << spec_text;
    std::ofstream(legacy) << legacy_text;

    CliResult check = run({"check", legacy});
    EXPECT_EQ(check.status, 0) << check.out << check.err;
    std::string note = onlyFindingLine(check.out, "obsolete-check-interval");
    EXPECT_EQ(note.rfind(legacy + ":" + std::to_string(key_line) + ":", 0),
              0u)
        << check.out;
    EXPECT_NE(note.find(": note: "), std::string::npos) << check.out;

    std::string base = (dir / "base").string();
    std::string journal = (dir / "journal.jsonl").string();
    ASSERT_EQ(run({"run", "--config", spec, "--journal", journal, "--out",
                   base})
                  .status,
              0);
    std::string csv = readFileText(base + ".csv");
    std::string metadata = metadataWithoutClock(base + ".md");
    EXPECT_EQ(metadata.find("checkInterval"), std::string::npos);
    std::string run_legacy = (dir / "legacy").string();
    CliResult ran = run({"run", "--config", legacy, "--out", run_legacy});
    ASSERT_EQ(ran.status, 0) << ran.err;
    EXPECT_EQ(readFileText(run_legacy + ".csv"), csv);
    EXPECT_EQ(metadataWithoutClock(run_legacy + ".md"), metadata);

    // What a run recorded while the key was written: the experiment
    // entry of the metadata and of the journal's spec line carry it.
    auto addInterval = [](std::string text) {
        const std::string max_key = "\"max\":1000,";
        size_t at = text.find(max_key);
        if (at != std::string::npos)
            text.insert(at + max_key.size(), "\"checkInterval\":1,");
        return text;
    };
    std::string recorded = addInterval(readFileText(base + ".md"));
    ASSERT_NE(recorded.find("\"checkInterval\":1"), std::string::npos);
    std::string legacy_md = (dir / "recorded.md").string();
    std::ofstream(legacy_md) << recorded;
    std::istringstream journal_in(addInterval(readFileText(journal)));
    std::vector<std::string> lines;
    for (std::string line; std::getline(journal_in, line);)
        lines.push_back(line);
    ASSERT_GT(lines.size(), 8u);
    ASSERT_NE(lines[0].find("\"checkInterval\":1"), std::string::npos);
    // Killed five rounds before the end: no done marker.
    std::string partial;
    for (size_t i = 0; i + 6 < lines.size(); ++i)
        partial += lines[i] + "\n";
    fs::path resume_dir = dir / "resume";
    fs::create_directories(resume_dir);
    std::string legacy_journal = (resume_dir / "journal.jsonl").string();
    std::ofstream(legacy_journal) << partial;

    for (const std::string &artifact : {legacy_md, legacy_journal}) {
        CliResult noted = run({"check", artifact});
        EXPECT_EQ(noted.status, 0) << noted.out << noted.err;
        EXPECT_NE(onlyFindingLine(noted.out, "obsolete-check-interval")
                      .find(": note: "),
                  std::string::npos)
            << noted.out;
    }

    std::string again = (dir / "again").string();
    CliResult repro = run({"reproduce", legacy_md, "--out", again});
    ASSERT_EQ(repro.status, 0) << repro.err;
    EXPECT_EQ(readFileText(again + ".csv"), csv);
    EXPECT_EQ(metadataWithoutClock(again + ".md"), metadata);

    std::string resumed = (dir / "resumed").string();
    CliResult resume =
        run({"run", "--resume", legacy_journal, "--out", resumed});
    ASSERT_EQ(resume.status, 0) << resume.err;
    EXPECT_NE(resume.out.find("resumed to"), std::string::npos)
        << resume.out;
    EXPECT_EQ(readFileText(resumed + ".csv"), csv);
    fs::remove_all(dir);
}

TEST(Cli, RunRejectsUnknownWorkload)
{
    CliResult result = run({"run", "--workload", "linpack"});
    EXPECT_EQ(result.status, 1);
    EXPECT_NE(result.err.find("error:"), std::string::npos);
}

TEST(Cli, RunRejectsBadRetryFlags)
{
    CliResult result = run({"run", "--workload", "bfs", "--retries",
                            "many"});
    EXPECT_EQ(result.status, 2);
    EXPECT_NE(result.err.find("--retries"), std::string::npos);

    CliResult negative = run({"run", "--workload", "bfs",
                              "--retry-backoff", "-1"});
    EXPECT_EQ(negative.status, 2);

    CliResult rate = run({"run", "--workload", "bfs",
                          "--max-failure-rate", "1.5"});
    EXPECT_EQ(rate.status, 2);
}

// Satellite regression: the failure-policy abort is a distinct exit
// code (3) so scripts can tell "the campaign was hopeless" apart from
// generic errors (1) and usage mistakes (2).
TEST(Cli, FailurePolicyAbortExitsWithCode3)
{
    fs::path fault_file =
        fs::temp_directory_path() / "sharp_cli_fault.json";
    {
        std::ofstream spec(fault_file);
        spec << R"({"crash": 1.0, "seed": 7})";
    }
    CliResult result =
        run({"run", "--workload", "bfs", "--fault",
             fault_file.string(), "--max-failures", "2", "--max",
             "50"});
    EXPECT_EQ(result.status, 3);
    EXPECT_NE(result.err.find("failure policy"), std::string::npos);
    EXPECT_NE(result.err.find("signal-crash"), std::string::npos);
    fs::remove(fault_file);
}

TEST(Cli, RetriedFaultyRunStillSucceeds)
{
    fs::path fault_file =
        fs::temp_directory_path() / "sharp_cli_flaky.json";
    {
        std::ofstream spec(fault_file);
        spec << R"({"flaky_exit": 0.3, "seed": 11})";
    }
    CliResult result =
        run({"run", "--workload", "bfs", "--fault",
             fault_file.string(), "--retries", "3", "--max-failures",
             "100", "--rule", "fixed", "--count", "30"});
    EXPECT_EQ(result.status, 0) << result.err;
    EXPECT_NE(result.out.find("collected 30 samples"),
              std::string::npos);
    fs::remove(fault_file);
}

TEST(Cli, ResumeRejectsMissingJournal)
{
    CliResult result = run({"run", "--resume", "/no/such/journal"});
    EXPECT_EQ(result.status, 1);
    EXPECT_NE(result.err.find("error:"), std::string::npos);
}

TEST(Cli, ResumeOfCompletedJournalIsANoOp)
{
    fs::path dir = fs::temp_directory_path() / "sharp_cli_resume_done";
    fs::remove_all(dir);
    fs::create_directories(dir);
    fs::path journal = dir / "journal.jsonl";
    fs::path out = dir / "result";

    CliResult first =
        run({"run", "--workload", "bfs", "--rule", "fixed", "--count",
             "10", "--journal", journal.string(), "--out",
             out.string()});
    ASSERT_EQ(first.status, 0) << first.err;

    std::string journalBytes = readFileText(journal.string());
    std::string csv = readFileText(out.string() + ".csv");

    CliResult again = run({"run", "--resume", dir.string()});
    EXPECT_EQ(again.status, 0) << again.err;
    EXPECT_NE(again.out.find("already completed"), std::string::npos);
    EXPECT_EQ(readFileText(journal.string()), journalBytes);

    // A process killed after the done marker but before saving leaves
    // a finished journal and no results: resuming replays the journal
    // and writes them, still without touching the journal.
    fs::remove(out.string() + ".csv");
    fs::remove(out.string() + ".md");
    CliResult recovered = run({"run", "--resume", dir.string(), "--out",
                               out.string()});
    EXPECT_EQ(recovered.status, 0) << recovered.err;
    EXPECT_NE(recovered.out.find("already completed"),
              std::string::npos);
    EXPECT_EQ(readFileText(out.string() + ".csv"), csv);
    EXPECT_EQ(readFileText(journal.string()), journalBytes);
    fs::remove_all(dir);
}

TEST(Cli, ReportRejectsMissingFile)
{
    CliResult result = run({"report", "/no/such/file.csv"});
    EXPECT_EQ(result.status, 1);
    CliResult noargs = run({"report"});
    EXPECT_EQ(noargs.status, 2);
}

TEST(Cli, WorkloadFilterNeverCountsWarmupRows)
{
    // --workload picks rows; it must not bring back the warmup rows
    // that report, compare and gate drop without it.
    fs::path dir = fs::temp_directory_path();
    fs::path spec = dir / "sharp_cli_warmup.json";
    fs::path base = dir / "sharp_cli_warmup_base";
    fs::path cand = dir / "sharp_cli_warmup_cand";
    for (const auto &[seed, out_base] : {std::pair{1, base}, {2, cand}}) {
        {
            std::ofstream out(spec);
            out << R"({"backend": "sim", "workload": "bfs", "seed": )"
                << seed << R"(, "experiment": {"rule": "fixed",
                   "params": {"count": 30}, "warmup": 5}})";
        }
        ASSERT_EQ(run({"run", "--config", spec.string(), "--out",
                       out_base.string()})
                      .status,
                  0);
    }
    std::string a = base.string() + ".csv";
    std::string b = cand.string() + ".csv";

    CliResult all = run({"report", a});
    ASSERT_EQ(all.status, 0) << all.err;
    EXPECT_NE(all.out.find("| n               |                 30 |"),
              std::string::npos)
        << all.out;
    CliResult picked = run({"report", a, "--workload", "bfs"});
    EXPECT_EQ(picked.out, all.out);
    for (const char *command : {"compare", "gate"}) {
        CliResult whole = run({command, a, b});
        CliResult filtered = run({command, a, b, "--workload", "bfs"});
        EXPECT_EQ(filtered.status, whole.status) << command;
        EXPECT_EQ(filtered.out, whole.out) << command;
    }
    fs::remove(spec);
    for (const fs::path &path : {base, cand}) {
        fs::remove(path.string() + ".csv");
        fs::remove(path.string() + ".md");
    }
}

TEST(Cli, WorkflowTranslatesAndExecutes)
{
    fs::path spec = fs::temp_directory_path() / "sharp_cli_wf.json";
    {
        std::ofstream out(spec);
        out << R"({
            "id": "cliwf",
            "functions": [{"name": "f", "operation": "true"}],
            "states": [{"name": "s", "type": "operation",
                        "actions": [{"functionRef": "f"}]}]
        })";
    }
    fs::path makefile = fs::temp_directory_path() / "sharp_cli_wf.mk";

    CliResult translate = run({"workflow", spec.string(), "--makefile",
                               makefile.string()});
    EXPECT_EQ(translate.status, 0) << translate.err;
    EXPECT_TRUE(fs::exists(makefile));

    CliResult execute =
        run({"workflow", spec.string(), "--execute"});
    EXPECT_EQ(execute.status, 0) << execute.err;
    EXPECT_NE(execute.out.find("succeeded"), std::string::npos);

    fs::remove(spec);
    fs::remove(makefile);
}

TEST(Cli, GateEndToEnd)
{
    // Record a baseline and a regressed candidate, then gate them.
    fs::path base = fs::temp_directory_path() / "sharp_cli_gate_base";
    fs::path cand = fs::temp_directory_path() / "sharp_cli_gate_cand";
    ASSERT_EQ(run({"run", "--workload", "lud", "--rule", "fixed",
                   "--count", "80", "--seed", "1", "--out",
                   base.string()})
                  .status,
              0);
    // The "candidate": the same workload on a slower environment —
    // machine2's lower cpuSpeedFactor regresses every run ~2%... use
    // a different machine for a visible change.
    ASSERT_EQ(run({"run", "--workload", "lud", "--machine", "machine2",
                   "--rule", "fixed", "--count", "80", "--seed", "2",
                   "--out", cand.string()})
                  .status,
              0);

    // Self-gate passes.
    CliResult self = run({"gate", base.string() + ".csv",
                          base.string() + ".csv"});
    EXPECT_EQ(self.status, 0) << self.err;
    EXPECT_NE(self.out.find("PASS"), std::string::npos);

    // machine2 is ~2% slower than machine1; with a 1% tolerance the
    // gate must fail.
    CliResult fail = run({"gate", base.string() + ".csv",
                          cand.string() + ".csv", "--slowdown",
                          "0.01"});
    EXPECT_EQ(fail.status, 1) << fail.out;
    EXPECT_NE(fail.out.find("FAIL"), std::string::npos);

    for (const auto &path : {base, cand}) {
        fs::remove(path.string() + ".csv");
        fs::remove(path.string() + ".md");
    }
}

TEST(Cli, SuiteRunsTheRegistry)
{
    CliResult result = run({"suite", "--machine", "machine2", "--max",
                            "300", "--seed", "4"});
    EXPECT_EQ(result.status, 0) << result.err;
    // machine2 runs the 11 CPU benchmarks.
    EXPECT_NE(result.out.find("hotspot"), std::string::npos);
    EXPECT_EQ(result.out.find("bfs-CUDA"), std::string::npos);
    EXPECT_NE(result.out.find("total runs:"), std::string::npos);
    EXPECT_NE(result.out.find("% saved vs fixed-300"),
              std::string::npos);
}

TEST(Cli, SuiteJobsOutputIsIdenticalToSerial)
{
    std::vector<std::string> base = {"suite", "--machine", "machine2",
                                     "--max", "300", "--seed", "4"};
    CliResult serial = run(base);
    std::vector<std::string> parallel_args = base;
    parallel_args.push_back("--jobs");
    parallel_args.push_back("4");
    CliResult parallel = run(parallel_args);
    EXPECT_EQ(parallel.status, 0) << parallel.err;
    // The rendered table (order, values, totals) must not depend on
    // the worker count.
    EXPECT_EQ(parallel.out, serial.out);
}

TEST(Cli, JobsFlagRejectsBadValues)
{
    CliResult result = run({"suite", "--jobs", "0"});
    EXPECT_EQ(result.status, 2);
    EXPECT_NE(result.err.find("--jobs"), std::string::npos);
    CliResult word = run(
        {"run", "--workload", "bfs", "--jobs", "many"});
    EXPECT_EQ(word.status, 2);
}

TEST(Cli, RunFromJsonConfig)
{
    fs::path config = fs::temp_directory_path() / "sharp_cli_cfg.json";
    {
        std::ofstream out(config);
        out << R"({
            "backend": "sim", "workload": "kmeans",
            "machines": ["machine3"], "seed": 5,
            "experiment": {"rule": "fixed",
                           "params": {"count": 40}, "max": 100}
        })";
    }
    CliResult result = run({"run", "--config", config.string()});
    EXPECT_EQ(result.status, 0) << result.err;
    EXPECT_NE(result.out.find("collected 40 samples"),
              std::string::npos);
    EXPECT_NE(result.out.find("kmeans"), std::string::npos);
    fs::remove(config);
}

TEST(Cli, BaselineCompareExitContract)
{
    // End to end through the real CLI: capture a baseline from a sim
    // campaign, self-compare (0), compare a perturbed candidate (1),
    // compare against a malformed bundle (2).
    fs::path dir = fs::temp_directory_path() / "sharp_cli_compare";
    fs::remove_all(dir);
    fs::create_directories(dir);
    auto path = [&dir](const std::string &name) {
        return (dir / name).string();
    };

    CliResult campaign = run({"run", "--workload", "bfs", "--rule",
                              "fixed", "--count", "30", "--seed", "7",
                              "--out", path("runs")});
    ASSERT_EQ(campaign.status, 0) << campaign.err;

    CliResult capture = run({"baseline", "capture", path("runs.csv"),
                             "--out", path("base.json")});
    ASSERT_EQ(capture.status, 0) << capture.err;
    EXPECT_NE(capture.out.find("captured 1 scenario"),
              std::string::npos);

    CliResult self = run({"compare", path("runs.csv"), "--against",
                          path("base.json")});
    EXPECT_EQ(self.status, 0) << self.out << self.err;
    EXPECT_NE(self.out.find("PASS"), std::string::npos);

    // Perturb: scale the execution_time column (last field) by 1.5.
    {
        std::ifstream in(path("runs.csv"));
        std::ofstream out(path("slow.csv"));
        std::string line;
        std::getline(in, line);
        out << line << "\n";
        while (std::getline(in, line)) {
            size_t comma = line.rfind(',');
            double value = std::stod(line.substr(comma + 1));
            out << line.substr(0, comma + 1) << value * 1.5 << "\n";
        }
    }
    CliResult slow = run({"compare", path("slow.csv"), "--against",
                          path("base.json"), "--format", "json",
                          "--out", path("report.json")});
    EXPECT_EQ(slow.status, 1) << slow.out << slow.err;
    EXPECT_NE(slow.out.find("\"pass\": false"), std::string::npos);
    EXPECT_NE(slow.out.find("\"exit_code\": 1"), std::string::npos);
    EXPECT_TRUE(fs::exists(path("report.json")));

    // Malformed bundle (unsorted samples, bad count) → artifact error.
    CliResult bad =
        run({"compare", path("runs.csv"), "--against",
             std::string(SHARP_SOURCE_DIR) +
                 "/tests/fixtures/check/bad_bundle.json"});
    EXPECT_EQ(bad.status, 2) << bad.out;
    EXPECT_NE(bad.err.find("compare:"), std::string::npos);

    fs::remove_all(dir);
}

TEST(Cli, BaselineCompareUsageErrors)
{
    CliResult no_out = run({"baseline", "capture", "whatever.csv"});
    EXPECT_EQ(no_out.status, 2);
    EXPECT_NE(no_out.err.find("--out"), std::string::npos);

    CliResult no_inputs = run({"baseline", "capture", "--out", "b"});
    EXPECT_EQ(no_inputs.status, 2);

    CliResult no_subcommand = run({"baseline"});
    EXPECT_EQ(no_subcommand.status, 2);

    CliResult no_candidate = run({"compare", "--against", "b.json"});
    EXPECT_EQ(no_candidate.status, 2);

    CliResult bad_format =
        run({"compare", "a.csv", "--against", "b.json", "--format",
             "yaml"});
    EXPECT_EQ(bad_format.status, 2);
    EXPECT_NE(bad_format.err.find("format"), std::string::npos);
}

TEST(Cli, UsagePinsRegressionGatingContract)
{
    CliResult help = run({"help"});
    EXPECT_NE(help.out.find("baseline capture"), std::string::npos);
    EXPECT_NE(help.out.find("--against"), std::string::npos);
    EXPECT_NE(help.out.find("exit codes: 0 ok, 1 error (compare "
                            "--against: regression to"),
              std::string::npos);
    EXPECT_NE(help.out.find("2 usage or malformed"),
              std::string::npos);
    EXPECT_NE(help.out.find("0 no regression, 1 investigate"),
              std::string::npos);
}

TEST(Cli, WorkflowReportsBadSpec)
{
    fs::path spec = fs::temp_directory_path() / "sharp_cli_bad.json";
    {
        std::ofstream out(spec);
        out << "{not json";
    }
    CliResult result = run({"workflow", spec.string()});
    EXPECT_EQ(result.status, 1);
    EXPECT_NE(result.err.find("error:"), std::string::npos);
    fs::remove(spec);
}

TEST(Cli, UnknownFlagExitsTwoWithAHintBeforeAnyWork)
{
    CliResult typo = run({"run", "--workload", "bfs", "--thresold", "0.5",
                          "--max", "30"});
    EXPECT_EQ(typo.status, 2);
    EXPECT_EQ(typo.err,
              "run: unknown flag --thresold (did you mean --threshold?)\n");
    EXPECT_EQ(typo.out, "");

    // Nothing runs, so nothing is written.
    fs::path base = fs::temp_directory_path() / "sharp_cli_typo";
    fs::remove(base.string() + ".csv");
    CliResult written = run({"run", "--workload", "bfs", "--thresold",
                             "0.5", "--max", "30", "--out", base.string()});
    EXPECT_EQ(written.status, 2);
    EXPECT_FALSE(fs::exists(base.string() + ".csv"));
}

TEST(Cli, EveryFormRejectsAnUndeclaredFlag)
{
    for (const Form &form : forms()) {
        std::vector<std::string> argv = {form.command};
        bool flag = std::any_of(
            form.flags.begin(), form.flags.end(), [&](const Flag &each) {
                return std::string(each.name) == form.selector;
            });
        if (flag) {
            argv.push_back(std::string("--") + form.selector);
            argv.push_back("x");
        } else if (*form.selector) {
            argv.push_back(form.selector); // the operand that picks it
        }
        argv.push_back("--no-such-flag");
        CliResult result = run(argv);
        EXPECT_EQ(result.status, 2) << form.command << " " << form.selector;
        EXPECT_EQ(result.err, std::string(form.command) +
                                  ": unknown flag --no-such-flag\n");
        EXPECT_EQ(result.out, "");
    }
}

TEST(Cli, SwitchesNeverTakeAnOperand)
{
    fs::path dir = fs::temp_directory_path() / "sharp_cli_switches";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::string base = (dir / "runs").string();
    ASSERT_EQ(run({"run", "--workload", "lud", "--rule", "fixed", "--count",
                   "20", "--out", base})
                  .status,
              0);
    CliResult gate = run({"gate", "--larger-is-better", base + ".csv",
                          base + ".csv"});
    EXPECT_EQ(gate.status, 0) << gate.err;
    EXPECT_NE(gate.out.find("PASS"), std::string::npos) << gate.out;

    std::string spec = (dir / "workflow.json").string();
    std::ofstream(spec) << R"({"id": "switches",
        "functions": [{"name": "f", "operation": "true"}],
        "states": [{"name": "s", "type": "operation",
                    "actions": [{"functionRef": "f"}]}]})";
    CliResult workflow = run({"workflow", "--execute", spec});
    EXPECT_EQ(workflow.status, 0) << workflow.err;
    EXPECT_NE(workflow.out.find("succeeded"), std::string::npos);
    fs::remove_all(dir);
}

TEST(Cli, AValueFlagWithoutAValueExitsTwo)
{
    CliResult max = run({"run", "--workload", "bfs", "--max"});
    EXPECT_EQ(max.status, 2);
    EXPECT_EQ(max.err, "run: --max needs a value\n");

    // A bare --journal names no journal, whatever --out says.
    fs::path base = fs::temp_directory_path() / "sharp_cli_bare_journal";
    fs::remove(base.string() + ".journal.jsonl");
    CliResult journal =
        run({"run", "--workload", "bfs", "--rule", "fixed", "--count", "5",
             "--journal", "--out", base.string()});
    EXPECT_EQ(journal.status, 2);
    EXPECT_EQ(journal.err, "run: --journal needs a value\n");
    EXPECT_FALSE(fs::exists(base.string() + ".journal.jsonl"));
    EXPECT_FALSE(fs::exists(base.string() + ".csv"));
}

TEST(Cli, EachFormReadsOnlyItsOwnFlags)
{
    std::string spec =
        std::string(SHARP_SOURCE_DIR) + "/examples/run_spec.json";
    CliResult config = run({"run", "--config", spec, "--seed", "9"});
    EXPECT_EQ(config.status, 2);
    EXPECT_EQ(config.err, "run: --seed is not read by `sharp run --config "
                          "FILE.json`; set it in the spec\n");
    EXPECT_EQ(config.out, "");

    CliResult resume =
        run({"run", "--resume", "/no/such/journal", "--max", "5"});
    EXPECT_EQ(resume.status, 2);
    EXPECT_EQ(resume.err.rfind("run: --max is not read by `sharp run "
                               "--resume PATH`",
                               0),
              0u)
        << resume.err;

    CliResult compare = run({"compare", "a.csv", "b.csv", "--format", "json"});
    EXPECT_EQ(compare.status, 2);
    EXPECT_EQ(compare.err,
              "compare: --format is not read by `sharp compare A.csv "
              "B.csv`\n");
}

TEST(Cli, SuiteAndMicroRejectTheRuleFlagsTheyDoNotRead)
{
    // machine2 runs the 11 CPU benchmarks, 7 runs each.
    CliResult fixed = run({"suite", "--machine", "machine2", "--rule",
                           "fixed", "--count", "7", "--max", "50"});
    EXPECT_EQ(fixed.status, 0) << fixed.err;
    EXPECT_NE(fixed.out.find("total runs: 77 "), std::string::npos)
        << fixed.out;

    // suite takes no --quantile and micro no --count: both are unknown
    // flags, not a rule parameter dropped at its default.
    CliResult quantile = run({"suite", "--rule", "tail-quantile",
                              "--quantile", "0.9", "--max", "50"});
    EXPECT_EQ(quantile.status, 2);
    EXPECT_EQ(quantile.err, "suite: unknown flag --quantile\n");
    EXPECT_EQ(quantile.out, "");
    CliResult count = run({"micro", "alu-ops", "--rule", "fixed",
                           "--count", "7", "--max", "50"});
    EXPECT_EQ(count.status, 2);
    EXPECT_EQ(count.err, "micro: unknown flag --count\n");
    EXPECT_EQ(count.out, "");
}

TEST(Cli, HelpIsRenderedFromTheTable)
{
    CliResult all = run({"help"});
    ASSERT_EQ(all.status, 0);
    for (const Form &form : forms()) {
        CliResult one = run({form.command, "--help"});
        EXPECT_EQ(one.status, 0) << form.command;
        EXPECT_EQ(one.err, "");
        std::string summary = form.summary;
        summary = summary.substr(0, summary.find('\n'));
        EXPECT_NE(one.out.find(summary), std::string::npos) << summary;
        EXPECT_NE(all.out.find(summary), std::string::npos) << summary;
        for (const Flag &flag : form.flags) {
            if (std::string(flag.name) == form.selector)
                continue;
            std::string line = std::string("--") + flag.name;
            if (flag.kind != FlagKind::Switch)
                line += std::string(" ") + flag.value;
            for (const std::string &text : {one.out, all.out}) {
                size_t at = text.find("      " + line + " ");
                ASSERT_NE(at, std::string::npos) << form.command << line;
                EXPECT_NE(text.find(flag.help, at), std::string::npos)
                    << form.command << line;
            }
        }
    }
    // The exit contracts of the daemon and its client.
    EXPECT_NE(run({"serve", "--help"}).out.find("exits 130"),
              std::string::npos);
    EXPECT_NE(run({"client", "--help"}).out.find("1 retryable rejection"),
              std::string::npos);
}

TEST(Cli, CalibrateChecksItsBaselineBeforeTheSweep)
{
    // A baseline that cannot gate is a usage error (2), reported where
    // `sharp check` reports it, and no cell runs; a failed gate is 1.
    fs::path bad = fs::temp_directory_path() / "sharp_cli_bad_base.json";
    std::ofstream(bad) << "{\"schema\": }\n";
    const std::vector<std::string> sweep = {"calibrate", "--rules",
                                            "fixed", "--distributions",
                                            "normal", "--baseline"};
    std::vector<std::string> argv = sweep;
    argv.push_back(bad.string());
    CliResult syntax = run(argv);
    EXPECT_EQ(syntax.status, 2);
    EXPECT_EQ(syntax.out, "");
    EXPECT_EQ(syntax.err.rfind(bad.string() + ":1:12: error: ", 0), 0u)
        << syntax.err;
    EXPECT_NE(syntax.err.find("[json-syntax]"), std::string::npos);

    std::ofstream(bad) << "{}\n";
    CliResult shape = run(argv);
    EXPECT_EQ(shape.status, 2);
    EXPECT_EQ(shape.out, "");
    EXPECT_NE(shape.err.find(bad.string() + ":1:1: error: baseline "
                                            "requires a 'rules' object"),
              std::string::npos)
        << shape.err;

    argv.back() = "/no/such/baseline.json";
    CliResult missing = run(argv);
    EXPECT_EQ(missing.status, 2);
    EXPECT_EQ(missing.out, "");
    EXPECT_NE(missing.err.find("[io-error]"), std::string::npos);
    fs::remove(bad);
}

TEST(Cli, ClientSubmitOfABadFileExitsTwoWithoutADaemon)
{
    // Exit 1 means "retry later" to a client; a spec file that is not
    // JSON will not get better, so it is a 2, found before connecting.
    fs::path bad = fs::temp_directory_path() / "sharp_cli_bad_submit.json";
    std::ofstream(bad) << "{\"backend\": }\n";
    std::string socket =
        (fs::temp_directory_path() / "sharp_cli_no_daemon.sock").string();
    CliResult result =
        run({"client", "submit", bad.string(), "--socket", socket});
    EXPECT_EQ(result.status, 2);
    EXPECT_EQ(result.out, "");
    EXPECT_EQ(result.err.rfind(bad.string() + ":1:13: error: ", 0), 0u)
        << result.err;
    EXPECT_NE(result.err.find("[json-syntax]"), std::string::npos);

    // A file that cannot be opened is reported at its path as well
    // (root still opens it, and gets the syntax error).
    fs::permissions(bad, fs::perms::none);
    CliResult unreadable =
        run({"client", "submit", bad.string(), "--socket", socket});
    EXPECT_EQ(unreadable.status, 2);
    EXPECT_EQ(unreadable.err.rfind(bad.string() + ":", 0), 0u)
        << unreadable.err;
    fs::remove(bad);
}

TEST(Cli, ClientAndMicroReadOnlyTheFlagsOfTheirOperation)
{
    // The first operand picks the form, so a flag another operation
    // reads is rejected before anything connects or lists.
    std::string socket =
        (fs::temp_directory_path() / "sharp_cli_no_daemon.sock").string();
    CliResult status = run({"client", "status", "c000001", "--tenant", "x",
                            "--timeout", "5", "--socket", socket});
    EXPECT_EQ(status.status, 2);
    EXPECT_EQ(status.err,
              "client: --tenant is not read by `sharp client OP [ID]`\n");
    EXPECT_EQ(status.out, "");
    CliResult wait = run({"client", "wait", "c000001", "--tenant", "x",
                          "--socket", socket});
    EXPECT_EQ(wait.status, 2);
    EXPECT_EQ(wait.err,
              "client: --tenant is not read by `sharp client wait ID`\n");
    CliResult submit = run({"client", "submit", "spec.json", "--timeout",
                            "5", "--socket", socket});
    EXPECT_EQ(submit.status, 2);
    EXPECT_EQ(submit.err, "client: --timeout is not read by `sharp client "
                          "submit SPEC.json`\n");
    CliResult bare = run({"client", "wait", "--socket", socket});
    EXPECT_EQ(bare.status, 2);
    EXPECT_EQ(bare.err, "client: expected `sharp client wait ID`\n");

    CliResult list = run({"micro", "--max", "5", "--rule", "ks"});
    EXPECT_EQ(list.status, 2);
    EXPECT_EQ(list.err, "micro: --max is not read by `sharp micro`\n");
    EXPECT_EQ(list.out, "");
    CliResult probes = run({"micro"});
    EXPECT_EQ(probes.status, 0);
    EXPECT_NE(probes.out.find("alu-ops"), std::string::npos);
}

} // anonymous namespace
