/**
 * @file
 * Tests for the text artifacts `sharp` writes and reads back (run
 * journals, the serve queue journal, `.md` metadata): each has one
 * walk, shared by its loader and by `sharp check`. Everything the CLI
 * writes must check clean and load back; the loader must reject what
 * the check rejects, at the same line; and mutated bytes must end in
 * a located check::CheckFailure, never another exception.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "check/analyzer.hh"
#include "check/diagnostic.hh"
#include "cli/cli.hh"
#include "launcher/reproduce.hh"
#include "record/journal.hh"
#include "record/metadata.hh"
#include "serve/queue.hh"
#include "util/fs.hh"
#include "util/string_utils.hh"

namespace
{

using namespace sharp;
namespace fs = std::filesystem;
using util::readFileText;

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
    int status = cli::runCli(argv, out, err);
    return {status, out.str(), err.str()};
}

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

std::string
source(const std::string &relative)
{
    return std::string(SHARP_SOURCE_DIR) + "/" + relative;
}

/** A fresh scratch directory for one test. */
fs::path
scratch(const std::string &name)
{
    fs::path dir = fs::temp_directory_path() / ("sharp_text_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** The lines of @p text (each without its newline). */
std::vector<std::string>
linesOf(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string text;
    for (const std::string &line : lines)
        text += line + "\n";
    return text;
}

/** 1-based line of the first line of @p text holding @p needle. */
size_t
lineOf(const std::string &text, const std::string &needle)
{
    std::vector<std::string> lines = linesOf(text);
    for (size_t i = 0; i < lines.size(); ++i) {
        if (lines[i].find(needle) != std::string::npos)
            return i + 1;
    }
    return 0;
}

TEST(TextArtifacts, EveryWrittenArtifactChecksCleanAndLoadsBack)
{
    fs::path dir = scratch("roundtrip");
    auto write = [&](const std::string &name, const std::string &text) {
        std::string path = (dir / name).string();
        std::ofstream(path) << text;
        return path;
    };
    std::string phased = write("phased.json", R"({"backend": "sim-phased",
        "machines": ["machine1"], "seed": 4,
        "experiment": {"rule": "fixed", "params": {"count": 12}}})");
    std::string faas = write("faas.json", R"({"backend": "faas",
        "workload": "bfs-CUDA", "machines": ["machine1", "machine3"],
        "seed": 5, "concurrency": 2,
        "experiment": {"rule": "fixed", "params": {"count": 12}}})");
    std::string local = write("local.json", R"({"backend": "local",
        "workload": "echo", "argv": ["/bin/echo", "execution_time: 0.5"],
        "experiment": {"rule": "fixed", "params": {"count": 8}}})");
    std::string fault = write("fault.json", R"({"flaky_exit": 0.2,
        "seed": 7})");

    struct Case
    {
        std::string name;
        std::vector<std::string> run;
        /** Replays sample for sample (every backend but local). */
        bool exact;
    };
    const std::vector<Case> cases = {
        {"sim", {"--workload", "bfs", "--rule", "fixed", "--count", "12",
                 "--seed", "9"}, true},
        {"phased", {"--config", phased}, true},
        {"faas", {"--config", faas}, true},
        {"local", {"--config", local}, false},
        {"family", {"--scenario", source("scenarios/diurnal_drift.json"),
                    "--rule", "fixed", "--count", "12"}, true},
        {"trace", {"--scenario", source("scenarios/trace_replay.json"),
                   "--rule", "fixed", "--count", "12"}, true},
        {"faults", {"--workload", "lud", "--rule", "fixed", "--count",
                    "12", "--fault", fault, "--retries", "2"}, true},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        std::string base = (dir / c.name).string();
        std::string journal = base + ".jsonl";
        std::vector<std::string> argv = {"run"};
        argv.insert(argv.end(), c.run.begin(), c.run.end());
        argv.insert(argv.end(), {"--journal", journal, "--out", base});
        CliResult first = run(argv);
        ASSERT_EQ(first.status, 0) << first.err;

        CliResult check = run({"check", journal, base + ".md"});
        EXPECT_LT(check.status, 2) << check.out;

        CliResult again =
            run({"reproduce", base + ".md", "--out", base + "_rep"});
        ASSERT_EQ(again.status, 0) << again.err;

        // The last three rounds and the done marker, as a kill leaves.
        std::vector<std::string> lines = linesOf(readFileText(journal));
        ASSERT_GT(lines.size(), 5u);
        lines.resize(lines.size() - 4);
        std::string cut = base + "_cut.jsonl";
        std::ofstream(cut) << joinLines(lines);
        CliResult resumed =
            run({"run", "--resume", cut, "--out", base + "_res"});
        ASSERT_EQ(resumed.status, 0) << resumed.err;
        EXPECT_NE(resumed.out.find("resumed to"), std::string::npos);

        if (!c.exact)
            continue;
        std::string csv = readFileText(base + ".csv");
        EXPECT_EQ(readFileText(base + "_rep.csv"), csv);
        EXPECT_EQ(metadataWithoutClock(base + "_rep.md"),
                  metadataWithoutClock(base + ".md"));
        EXPECT_EQ(readFileText(base + "_res.csv"), csv);
    }
    fs::remove_all(dir);
}

// ---- Each disagreement between a loader and `sharp check`.

TEST(TextArtifacts, LocalBackendMetadataReproduces)
{
    fs::path dir = scratch("local");
    std::string spec = (dir / "local.json").string();
    std::ofstream(spec) << R"({"backend": "local", "workload": "echo",
        "argv": ["/bin/echo", "execution_time: 0.5"], "timeout": 10,
        "experiment": {"rule": "fixed", "params": {"count": 5}}})";
    std::string base = (dir / "run").string();
    ASSERT_EQ(run({"run", "--config", spec, "--out", base}).status, 0);

    CliResult again = run({"reproduce", base + ".md"});
    EXPECT_EQ(again.status, 0) << again.err;
    EXPECT_NE(again.out.find("reproduced 5 samples"), std::string::npos);
    CliResult check = run({"check", base + ".md"});
    EXPECT_EQ(check.status, 1) << check.out; // the nondeterminism warning
    EXPECT_EQ(check.out.find("bad-metadata"), std::string::npos);
    fs::remove_all(dir);
}

TEST(TextArtifacts, TraceReplayJournalChecksCleanAndResumes)
{
    // A trace replays the rows of a recorded campaign, so its records
    // carry that campaign's backend ("sim"), not the spec's "scenario".
    fs::path dir = scratch("trace");
    std::string journal = (dir / "trace.jsonl").string();
    std::string base = (dir / "trace").string();
    ASSERT_EQ(run({"run", "--scenario",
                   source("scenarios/trace_replay.json"), "--rule",
                   "fixed", "--count", "10", "--max", "20", "--journal",
                   journal, "--out", base})
                  .status,
              0);
    EXPECT_NE(readFileText(journal).find("\"backend\":\"sim\""),
              std::string::npos);
    CliResult check = run({"check", journal});
    EXPECT_EQ(check.status, 0) << check.out;

    std::vector<std::string> lines = linesOf(readFileText(journal));
    lines.resize(lines.size() - 4);
    std::ofstream(journal) << joinLines(lines);
    CliResult resumed =
        run({"run", "--resume", journal, "--out", base + "_res"});
    EXPECT_EQ(resumed.status, 0) << resumed.err;
    EXPECT_EQ(readFileText(base + "_res.csv"), readFileText(base + ".csv"));
    fs::remove_all(dir);
}

TEST(TextArtifacts, ResumeRejectsWhatCheckRejectsAndLeavesTheJournal)
{
    fs::path dir = scratch("resume");
    std::string journal = (dir / "bfs.jsonl").string();
    ASSERT_EQ(run({"run", "--workload", "bfs", "--rule", "fixed",
                   "--count", "5", "--journal", journal})
                  .status,
              0);
    std::vector<std::string> lines = linesOf(readFileText(journal));
    ASSERT_EQ(lines.size(), 7u); // spec, 5 rounds, done

    // Rounds after the done marker, and a record of another workload.
    std::vector<std::string> after = {lines[0], lines[1], lines[6],
                                      lines[2], lines[3]};
    std::vector<std::string> foreign(lines.begin(), lines.end() - 1);
    foreign[2] = util::replaceAll(foreign[2], "\"workload\":\"bfs\"",
                                  "\"workload\":\"hotspot\"");
    struct Defect
    {
        std::vector<std::string> lines;
        std::string where;
        std::string rule;
    };
    for (const Defect &defect :
         {Defect{after, ":4:1: error: ", "[journal-order]"},
          Defect{foreign, ":3:", "[journal-spec-mismatch]"}}) {
        std::string text = joinLines(defect.lines);
        std::ofstream(journal) << text;
        CliResult check = run({"check", journal});
        EXPECT_EQ(check.status, 2);
        CliResult resumed = run({"run", "--resume", journal});
        EXPECT_EQ(resumed.status, 1) << resumed.out;
        EXPECT_EQ(resumed.err.rfind(journal + defect.where, 0), 0u)
            << resumed.err;
        EXPECT_NE(resumed.err.find(defect.rule), std::string::npos);
        // Every error the loader printed is one `sharp check` printed.
        for (const std::string &line : linesOf(resumed.err))
            EXPECT_NE(check.out.find(line), std::string::npos) << line;
        EXPECT_EQ(readFileText(journal), text);
    }
    fs::remove_all(dir);
}

TEST(TextArtifacts, QueueEventAfterItsTerminalStateIsLocatedOnRead)
{
    fs::path dir = scratch("queue");
    std::string path = (dir / "queue.jsonl").string();
    {
        serve::QueueJournal queue(path);
        json::Value spec = json::Value::makeObject();
        spec.set("workload", "bfs");
        queue.submit("c000001", "default", spec);
        queue.cancel("c000001");
        queue.start("c000001", 0);
    }
    try {
        serve::readQueue(path);
        ADD_FAILURE() << "a start after the cancel was replayed";
    } catch (const check::CheckFailure &failure) {
        const check::Diagnostic &first = failure.result().diagnostics()[0];
        EXPECT_EQ(first.artifact, path);
        EXPECT_EQ(first.line, 4u);
        EXPECT_EQ(first.rule, "queue-order");
    }
    check::CheckResult checked;
    check::checkArtifactFile(path, checked);
    ASSERT_EQ(checked.errorCount(), 1u) << checked.renderText();
    EXPECT_EQ(checked.diagnostics()[0].line, 4u);
    fs::remove_all(dir);
}

TEST(TextArtifacts, MetadataEntryOutOfRangeIsLocatedAtItsEntry)
{
    fs::path dir = scratch("day");
    std::string base = (dir / "run").string();
    ASSERT_EQ(run({"run", "--workload", "bfs", "--rule", "fixed",
                   "--count", "5", "--out", base})
                  .status,
              0);
    std::string text = readFileText(base + ".md");
    size_t line = lineOf(text, "**repro_day**");
    ASSERT_GT(line, 0u);
    std::string where = base + "_bad.md:" + std::to_string(line) +
                        ": error: 'day' must be an integer in "
                        "[0, 2147483647] [out-of-range]\n";
    // -3 is no day, 2.5 no integer, 2^32 no int: none runs as day 0.
    for (const char *day : {"-3", "2.5", "4294967296"}) {
        SCOPED_TRACE(day);
        std::ofstream(base + "_bad.md")
            << util::replaceAll(text, "**repro_day**: 0",
                                std::string("**repro_day**: ") + day);
        CliResult again = run({"reproduce", base + "_bad.md"});
        EXPECT_EQ(again.status, 1);
        EXPECT_EQ(again.err, where);
        EXPECT_EQ(again.out, "");
        CliResult check = run({"check", base + "_bad.md"});
        EXPECT_EQ(check.status, 2);
        EXPECT_EQ(check.out.rfind(where, 0), 0u) << check.out;
    }
    fs::remove_all(dir);
}

TEST(TextArtifacts, RunSpecDayIsBoundedByItsInt)
{
    fs::path dir = scratch("spec_day");
    std::string spec = (dir / "spec.json").string();
    std::string text = util::replaceAll(
        readFileText(source("examples/run_spec.json")), "\"day\": 0",
        "\"day\": 4294967296");
    std::ofstream(spec) << text;
    CliResult check = run({"check", spec});
    EXPECT_EQ(check.status, 2);
    EXPECT_NE(check.out.find(spec + ":5:10: error: 'day' must be an "
                                    "integer in [0, 2147483647]"),
              std::string::npos)
        << check.out;
    CliResult config = run({"run", "--config", spec});
    EXPECT_EQ(config.status, 1);
    EXPECT_EQ(config.err.rfind(spec + ":5:10: error: ", 0), 0u)
        << config.err;
    // The largest int still loads.
    std::ofstream(spec) << util::replaceAll(text, "4294967296",
                                            "2147483647");
    EXPECT_EQ(run({"check", spec}).status, 0);
    fs::remove_all(dir);
}

TEST(TextArtifacts, LoaderErrorsNameTheirFileAndLine)
{
    fs::path dir = scratch("located");
    std::string journal = (dir / "bfs.jsonl").string();
    ASSERT_EQ(run({"run", "--workload", "bfs", "--rule", "fixed",
                   "--count", "5", "--journal", journal})
                  .status,
              0);
    std::vector<std::string> lines = linesOf(readFileText(journal));
    lines.pop_back();
    lines[3] = util::replaceAll(lines[3], "\"execution_time\":",
                                "\"execution_time\":\"fast\",\"x\":");
    std::ofstream(journal) << joinLines(lines);
    CliResult resumed = run({"run", "--resume", journal});
    EXPECT_EQ(resumed.status, 1);
    EXPECT_EQ(resumed.err.rfind(journal + ":4:", 0), 0u) << resumed.err;
    EXPECT_NE(resumed.err.find("metric 'execution_time' must be a number "
                               "[wrong-type]"),
              std::string::npos);
    EXPECT_THROW(record::readJournal(journal), check::CheckFailure);

    lines[3] = util::replaceAll(lines[3], "\"metrics\":{",
                                "\"metrics\":5,\"x\":{");
    std::ofstream(journal) << joinLines(lines);
    try {
        record::readJournal(journal);
        ADD_FAILURE() << "metrics that are no object were folded";
    } catch (const check::CheckFailure &failure) {
        EXPECT_EQ(failure.result().diagnostics()[0].line, 4u);
        EXPECT_EQ(failure.result().diagnostics()[0].rule, "wrong-type");
    }
    fs::remove_all(dir);
}

// ---- Mutated artifacts.

/**
 * One seeded mutation of @p text: a byte flipped, inserted or
 * deleted, a line dropped, duplicated or swapped with the next, or a
 * truncation.
 */
std::string
mutate(const std::string &text, uint64_t &state)
{
    auto next = [&state](size_t below) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<size_t>((state >> 33) % below);
    };
    std::string out = text;
    std::vector<std::string> lines = linesOf(text);
    size_t at = next(out.size());
    size_t line = next(lines.size());
    switch (next(7)) {
    case 0:
        out[at] = static_cast<char>(out[at] ^ (1 << next(8)));
        break;
    case 1:
        out.insert(at, 1, "{}[]\",:0123456789-.e\n\"ax"[next(25)]);
        break;
    case 2:
        out.erase(at, 1);
        break;
    case 3:
        lines.erase(lines.begin() + static_cast<long>(line));
        out = joinLines(lines);
        break;
    case 4:
        lines.insert(lines.begin() + static_cast<long>(line), lines[line]);
        out = joinLines(lines);
        break;
    case 5:
        if (line + 1 < lines.size())
            std::swap(lines[line], lines[line + 1]);
        out = joinLines(lines);
        break;
    default:
        out.resize(at);
        break;
    }
    return out;
}

/**
 * Run @p load on @p text: it must succeed or throw a CheckFailure whose
 * errors each name a line of @p text.
 * @return true when it failed.
 */
bool
loadsOrFailsLocated(const std::string &text,
                    const std::function<void()> &load)
{
    size_t lines = linesOf(text).size() + 1;
    try {
        load();
        return false;
    } catch (const check::CheckFailure &failure) {
        for (const check::Diagnostic &finding :
             failure.result().diagnostics()) {
            if (finding.severity != check::Severity::Error)
                continue;
            // Only a missing section or spec is about no one line.
            EXPECT_TRUE(finding.line >= 1 || finding.rule == "missing-field")
                << finding.render() << "\n" << text;
            EXPECT_LE(finding.line, lines) << finding.render();
        }
        return true;
    }
}

TEST(TextArtifacts, MutatedArtifactsFailWithLocatedDiagnostics)
{
    // A clean artifact of each format, from the writers.
    fs::path dir = scratch("mutants");
    std::string journal = (dir / "run.jsonl").string();
    std::string base = (dir / "run").string();
    ASSERT_EQ(run({"run", "--workload", "hotspot", "--rule", "fixed",
                   "--count", "6", "--retries", "1", "--journal", journal,
                   "--out", base})
                  .status,
              0);
    std::string queue = (dir / "queue.jsonl").string();
    {
        serve::QueueJournal writer(queue);
        json::Value spec = json::Value::makeObject();
        spec.set("backend", "sim");
        spec.set("workload", "bfs");
        writer.submit("c000001", "default", spec);
        writer.submit("c000002", "ci", spec);
        writer.start("c000001", 0);
        writer.failover("c000001", "shard killed by signal 9");
        writer.start("c000001", 1);
        writer.done("c000001");
        writer.cancel("c000002");
        writer.drain();
    }
    struct Format
    {
        std::string name;
        std::string text;
        std::function<void(const std::string &)> walk;
        std::function<void(const std::string &)> load;
    };
    const std::vector<Format> formats = {
        {"journal", readFileText(journal),
         [](const std::string &text) {
             check::CheckResult out;
             check::checkJournal(text, out);
         },
         [&](const std::string &text) {
             std::ofstream(journal) << text;
             // What `sharp run --resume` loads.
             json::Value spec = record::readJournal(journal).spec;
             if (spec.isObject())
                 launcher::ReproSpec::fromJson(spec);
         }},
        {"queue", readFileText(queue),
         [](const std::string &text) {
             check::CheckResult out;
             serve::walkQueue(text, out, true);
         },
         [&](const std::string &text) {
             std::ofstream(queue) << text;
             serve::readQueue(queue);
         }},
        {"metadata", readFileText(base + ".md"),
         [](const std::string &text) {
             check::CheckResult out;
             check::checkMetadata(text, out);
         },
         [](const std::string &text) {
             check::CheckResult findings;
             launcher::reproSpecFromMetadata(
                 record::MetadataDocument::parse(text, findings),
                 findings);
         }},
    };
    for (const Format &format : formats) {
        SCOPED_TRACE(format.name);
        EXPECT_FALSE(loadsOrFailsLocated(
            format.text, [&] { format.load(format.text); }));
        uint64_t state = 2026;
        size_t failed = 0;
        for (int i = 0; i < 1000; ++i) {
            std::string mutant = mutate(format.text, state);
            EXPECT_NO_THROW(format.walk(mutant)) << mutant;
            failed += loadsOrFailsLocated(
                mutant, [&] { format.load(mutant); });
        }
        // Most single edits break the artifact, and some leave it whole.
        EXPECT_GT(failed, 100u);
        EXPECT_LT(failed, 1000u);
    }
    fs::remove_all(dir);
}

} // anonymous namespace
