/**
 * @file
 * Time and peak memory of the commands that read a tidy CSV.
 *
 * `report`, `compare`, `gate` and `baseline capture` read recorded
 * runs through compare::ingestCsv(), which streams the file through
 * record::walkCsv() and keeps only each row's value and group. This
 * bench generates tidy CSVs of 10^4, 10^5 and (full mode) 1.02·10^6
 * rows: the header, then the data rows of `sharp run --workload bfs
 * --rule ci --threshold 1e-9 --max 30000 --seed 7` copied until the
 * size is reached (34 copies make the largest, 52.6 MB). On each it
 * runs, each in a child process whose peak RSS wait4() reports:
 *
 *  - `ingest`: compare::ingestCsv() alone, in a child of this binary;
 *  - `capture`: `sharp baseline capture CSV --out BUNDLE`;
 *  - `report`: `sharp report CSV`;
 *  - `gate`: `sharp gate CSV CSV`.
 *
 * Each command runs several times; the JSON (see --out; schema
 * sharp-bench-csv-v1) holds the median and fastest wall time and the
 * largest peak RSS. `--reference SHARP` also times the three CLI
 * commands with another `sharp` binary (say, a build of the previous
 * commit), alternating with this build's, and records them beside.
 *
 * Gate (the bench exits non-zero when it trips): ingestCsv()'s peak
 * RSS may grow by at most 64 bytes per row from 10^4 to 10^5 rows. A
 * reader that holds each row's cells as strings grows by about 490.
 * CI runs `csv_ingest --quick` (10^4 and 10^5 rows, three runs each)
 * as the bench.csv_ingest_smoke test.
 */

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "compare/bundle.hh"
#include "json/value.hh"
#include "json/writer.hh"
#include "launcher/reproduce.hh"

namespace
{

namespace fs = std::filesystem;
using sharp::json::Value;

/** Bytes of peak RSS growth per row the ingest gate allows. */
constexpr double kIngestBytesPerRow = 64.0;

/** One child run: wall seconds, peak RSS in bytes, exit status. */
struct Sample
{
    double wallSeconds = 0.0;
    double peakRssBytes = 0.0;
    int status = 0;
};

/**
 * Run @p argv in a child with stdout discarded; measure it. The peak
 * a child reports includes the pages it shared with this process
 * before its exec, so this process stays small: the campaign the CSVs
 * copy runs in a child of its own.
 */
Sample
runChild(const std::vector<std::string> &argv)
{
    std::vector<char *> args;
    for (const std::string &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);
    std::fflush(nullptr);
    auto start = std::chrono::steady_clock::now();
    pid_t pid = fork();
    if (pid == 0) {
        int null = open("/dev/null", O_WRONLY);
        dup2(null, STDOUT_FILENO);
        execv(args[0], args.data());
        _exit(127);
    }
    int status = 0;
    struct rusage usage = {};
    wait4(pid, &status, 0, &usage);
    Sample sample;
    sample.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    sample.peakRssBytes = static_cast<double>(usage.ru_maxrss) * 1024.0;
    sample.status = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
    return sample;
}

/** Median, fastest and largest of several runs of one command. */
struct Summary
{
    double medianWall = 0.0;
    double minWall = 0.0;
    double peakRssBytes = 0.0;
    bool ok = true;

    Value toJson() const
    {
        Value doc = Value::makeObject();
        doc.set("wall_s_median", medianWall);
        doc.set("wall_s_min", minWall);
        doc.set("peak_rss_mb", peakRssBytes / (1024.0 * 1024.0));
        return doc;
    }
};

Summary
summarize(const std::vector<Sample> &samples)
{
    Summary summary;
    std::vector<double> walls;
    for (const Sample &sample : samples) {
        walls.push_back(sample.wallSeconds);
        summary.peakRssBytes =
            std::max(summary.peakRssBytes, sample.peakRssBytes);
        summary.ok = summary.ok && sample.status == 0;
    }
    std::sort(walls.begin(), walls.end());
    summary.medianWall = walls[walls.size() / 2];
    summary.minWall = walls.front();
    return summary;
}

/**
 * The data rows of the campaign the acceptance CSV copies, and its
 * header line.
 */
void
campaignRows(const std::string &dir, std::string &header, std::string &body)
{
    sharp::launcher::ReproSpec spec;
    spec.backendKind = "sim";
    spec.workload = "bfs";
    spec.machines = {"machine1"};
    spec.seed = 7;
    spec.experiment.seed = spec.seed;
    spec.experiment.ruleName = "ci";
    spec.experiment.ruleParams["threshold"] = 1e-9;
    spec.experiment.options.maxSamples = 30000;
    std::string base = dir + "/campaign";
    std::fflush(nullptr);
    pid_t pid = fork();
    if (pid == 0) {
        sharp::launcher::runCampaign(spec).report.log.save(base);
        _exit(0);
    }
    waitpid(pid, nullptr, 0);
    std::ifstream in(base + ".csv", std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    std::string all = text.str();
    size_t end = all.find('\n') + 1;
    header = all.substr(0, end);
    body = all.substr(end);
}

/** Write a tidy CSV of @p rows data rows: copies of @p body. */
size_t
writeCsv(const std::string &path, const std::string &header,
         const std::string &body, size_t rows)
{
    std::ofstream out(path, std::ios::binary);
    out << header;
    size_t bytes = header.size();
    size_t left = rows;
    while (left > 0) {
        size_t at = 0;
        for (; left > 0 && at < body.size(); --left)
            at = body.find('\n', at) + 1;
        out.write(body.data(), static_cast<std::streamsize>(at));
        bytes += at;
    }
    return bytes;
}

int
ingestChild(const std::string &path)
{
    sharp::compare::FileSamples samples =
        sharp::compare::ingestCsv(path, {});
    size_t n = 0;
    for (const auto &[name, values] : samples.byScenario)
        n += values.size();
    std::printf("%zu samples\n", n);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc == 3 && std::string(argv[1]) == "--child-ingest")
        return ingestChild(argv[2]);

    bool quick = false;
    std::string out = "BENCH_csv.json";
    std::string reference;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick")
            quick = true;
        else if (arg == "--out" && i + 1 < argc)
            out = argv[++i];
        else if (arg == "--reference" && i + 1 < argc)
            reference = argv[++i];
        else {
            std::fprintf(stderr, "usage: csv_ingest [--quick] [--out FILE] "
                                 "[--reference SHARP]\n");
            return 2;
        }
    }
    const std::string self = fs::canonical("/proc/self/exe").string();
    const std::vector<size_t> sizes =
        quick ? std::vector<size_t>{10000, 100000}
              : std::vector<size_t>{10000, 100000, 1020000};
    const size_t repeats = quick ? 3 : 5;

    bench::banner("BENCH csv", quick ? "tidy-CSV ingest (quick smoke gate)"
                                     : "tidy-CSV ingest: time and peak RSS");
    fs::path work = fs::temp_directory_path() /
                    ("sharp_csv_ingest_" + std::to_string(getpid()));
    fs::create_directories(work);
    std::string header, body;
    campaignRows(work.string(), header, body);

    Value doc = Value::makeObject();
    doc.set("schema", "sharp-bench-csv-v1");
    doc.set("mode", quick ? "quick" : "full");
    doc.set("repeats", repeats);
    // Binaries are not named: their paths belong to the host.
    doc.set("with_reference", !reference.empty());
    Value points = Value::makeArray();
    bool ok = true;
    std::vector<double> ingestRss;
    std::printf("%10s %10s %-8s %10s %10s %10s %12s\n", "rows", "MB",
                "command", "median s", "min s", "peak MB", "ref peak MB");
    for (size_t rows : sizes) {
        std::string csv = (work / ("rows" + std::to_string(rows) + ".csv"))
                              .string();
        size_t bytes = writeCsv(csv, header, body, rows);
        std::string bundle = (work / "bundle.json").string();
        struct Command
        {
            const char *name;
            std::vector<std::string> args;
        };
        const std::vector<Command> commands = {
            {"ingest", {"--child-ingest", csv}},
            {"capture", {"baseline", "capture", csv, "--out", bundle}},
            {"report", {"report", csv}},
            {"gate", {"gate", csv, csv}},
        };
        Value point = Value::makeObject();
        point.set("rows", rows);
        point.set("bytes", bytes);
        for (const Command &command : commands) {
            bool ingest = std::string(command.name) == "ingest";
            auto argvFor = [&](const std::string &binary) {
                std::vector<std::string> full = {binary};
                full.insert(full.end(), command.args.begin(),
                            command.args.end());
                return full;
            };
            std::vector<Sample> mine, theirs;
            for (size_t r = 0; r < repeats; ++r) {
                mine.push_back(runChild(argvFor(ingest ? self : SHARP_CLI)));
                if (!ingest && !reference.empty())
                    theirs.push_back(runChild(argvFor(reference)));
            }
            Summary summary = summarize(mine);
            ok = ok && summary.ok;
            Value entry = summary.toJson();
            std::string referenceMb = "-";
            if (!theirs.empty()) {
                Summary other = summarize(theirs);
                entry.set("reference", other.toJson());
                referenceMb = std::to_string(static_cast<int>(
                    other.peakRssBytes / (1024.0 * 1024.0) + 0.5));
            }
            if (ingest)
                ingestRss.push_back(summary.peakRssBytes);
            point.set(command.name, std::move(entry));
            std::printf("%10zu %10.1f %-8s %10.3f %10.3f %10.1f %12s%s\n",
                        rows, static_cast<double>(bytes) / 1e6, command.name,
                        summary.medianWall, summary.minWall,
                        summary.peakRssBytes / (1024.0 * 1024.0),
                        referenceMb.c_str(), summary.ok ? "" : "  FAILED");
        }
        points.append(std::move(point));
    }
    doc.set("points", std::move(points));

    // The gate: ingest memory per row, 10^4 -> 10^5 rows.
    double perRow = (ingestRss[1] - ingestRss[0]) /
                    static_cast<double>(sizes[1] - sizes[0]);
    bool pass = perRow <= kIngestBytesPerRow;
    bench::section("gate");
    std::printf("ingest peak RSS growth: %.1f bytes/row (limit %.0f)%s\n",
                perRow, kIngestBytesPerRow, pass ? "" : "  GATE FAILED");
    Value gate = Value::makeObject();
    gate.set("ingest_bytes_per_row", perRow);
    gate.set("limit_bytes_per_row", kIngestBytesPerRow);
    gate.set("pass", pass);
    doc.set("gate", std::move(gate));

    sharp::json::writeFile(doc, out);
    std::printf("wrote %s\n", out.c_str());
    fs::remove_all(work);
    if (!ok)
        std::printf("a command failed\n");
    return ok && pass ? 0 : 1;
}
