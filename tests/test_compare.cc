/**
 * @file
 * Tests for the regression-gating layer (src/compare): baseline-bundle
 * capture (grouping, exclusion, determinism across jobs and
 * recaptures), the distribution comparator (self-compare, confirmed
 * regressions, improvements, additive slack, missing/unbaselined
 * scenarios), the bundle/report static checkers, the shared tolerance
 * currency in the calibration gate, and a byte-stable golden JSON
 * report.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "calibrate/baseline.hh"
#include "check/diagnostic.hh"
#include "cli/cli.hh"
#include "compare/bundle.hh"
#include "compare/compare.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "record/journal.hh"

namespace
{

using namespace sharp;
namespace fs = std::filesystem;

/** Fresh scratch directory for one test. */
fs::path
scratchDir(const std::string &name)
{
    fs::path dir = fs::temp_directory_path() / ("sharp_compare_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
fixture(const std::string &name)
{
    return std::string(SHARP_SOURCE_DIR) + "/tests/fixtures/compare/" +
           name;
}

/** One tidy-CSV row per value; warmup/failed rows on request. */
std::string
writeRunsCsv(const fs::path &path, const std::string &workload,
             const std::vector<double> &values, size_t warmupRows = 0,
             size_t failedRows = 0)
{
    std::ofstream out(path);
    out << "run,instance,attempt,workload,backend,machine,day,warmup,"
           "failure,execution_time\n";
    size_t run = 0;
    for (size_t i = 0; i < warmupRows; ++i) {
        out << run++ << ",0,0," << workload
            << ",sim,machine1,0,true,none,99.9\n";
    }
    for (size_t i = 0; i < failedRows; ++i) {
        out << run++ << ",0,0," << workload
            << ",sim,machine1,0,false,crash,77.7\n";
    }
    for (double v : values) {
        out << run++ << ",0,0," << workload
            << ",sim,machine1,0,false,none," << v << "\n";
    }
    return path.string();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

const check::Diagnostic *
findRule(const check::CheckResult &result, const std::string &rule)
{
    for (const auto &diagnostic : result.diagnostics()) {
        if (diagnostic.rule == rule)
            return &diagnostic;
    }
    return nullptr;
}

TEST(BaselineCapture, GroupsSortsAndExcludes)
{
    auto dir = scratchDir("capture");
    // Two workloads in one file, deliberately unsorted values, plus
    // warmup and failed rows that must never reach the bundle.
    std::ofstream csv(dir / "runs.csv");
    csv << "run,instance,attempt,workload,backend,machine,day,warmup,"
           "failure,execution_time\n"
        << "0,0,0,zeta,sim,machine1,0,true,none,50.0\n"
        << "1,0,0,zeta,sim,machine1,0,false,none,3.0\n"
        << "2,0,0,alpha,sim,machine1,0,false,none,2.0\n"
        << "3,0,0,zeta,sim,machine1,0,false,crash,9.0\n"
        << "4,0,0,zeta,sim,machine1,0,false,none,1.0\n"
        << "5,0,0,alpha,sim,machine1,0,false,none,4.0\n";
    csv.close();

    auto bundle = compare::captureBaseline({(dir / "runs.csv").string()});
    EXPECT_EQ(bundle.metric, "execution_time");
    EXPECT_EQ(bundle.excludedWarmup, 1u);
    EXPECT_EQ(bundle.excludedFailures, 1u);
    ASSERT_EQ(bundle.scenarios.size(), 2u);
    // Scenarios sorted by name, samples sorted ascending.
    EXPECT_EQ(bundle.scenarios[0].name, "alpha");
    EXPECT_EQ(bundle.scenarios[0].sorted, (std::vector<double>{2.0, 4.0}));
    EXPECT_EQ(bundle.scenarios[1].name, "zeta");
    EXPECT_EQ(bundle.scenarios[1].sorted, (std::vector<double>{1.0, 3.0}));
    EXPECT_EQ(bundle.scenarios[1].summary.n, 2u);

    const compare::ScenarioSamples *found = bundle.find("zeta");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->name, "zeta");
    EXPECT_EQ(bundle.find("nope"), nullptr);
}

TEST(BaselineCapture, MissingMetricColumnAndEmptyInputsThrow)
{
    auto dir = scratchDir("capture_errors");
    std::ofstream csv(dir / "no_metric.csv");
    csv << "run,workload\n0,bfs\n";
    csv.close();
    EXPECT_THROW(
        compare::captureBaseline({(dir / "no_metric.csv").string()}),
        std::runtime_error);
    EXPECT_THROW(compare::captureBaseline({}), std::invalid_argument);

    // All rows excluded: nothing usable.
    auto all_warmup =
        writeRunsCsv(dir / "warmup.csv", "bfs", {}, /*warmupRows=*/3);
    EXPECT_THROW(compare::captureBaseline({all_warmup}),
                 std::invalid_argument);
}

TEST(BaselineCapture, ReadsJournalInputs)
{
    auto dir = scratchDir("capture_journal");
    std::string path = (dir / "campaign.jsonl").string();
    {
        record::RunJournal journal(path);
        json::Value spec = json::Value::makeObject();
        spec.set("workload", "bfs");
        journal.writeSpec(spec);
        for (size_t round = 0; round < 4; ++round) {
            record::RunRecord rec;
            rec.run = round;
            rec.workload = "bfs";
            rec.warmup = round == 0;
            rec.metrics["execution_time"] = 5.0 + round;
            journal.appendRound({rec});
        }
        journal.markDone();
    }
    auto bundle = compare::captureBaseline({path});
    EXPECT_EQ(bundle.excludedWarmup, 1u);
    ASSERT_EQ(bundle.scenarios.size(), 1u);
    EXPECT_EQ(bundle.scenarios[0].name, "bfs");
    EXPECT_EQ(bundle.scenarios[0].sorted,
              (std::vector<double>{6.0, 7.0, 8.0}));
}

TEST(BaselineCapture, BundleIsByteIdenticalForAnyJobsAndAcrossRecapture)
{
    auto dir = scratchDir("capture_determinism");
    std::vector<std::string> inputs;
    for (int f = 0; f < 4; ++f) {
        std::vector<double> values;
        for (int i = 0; i < 25; ++i)
            values.push_back(10.0 + f + i * 0.013);
        inputs.push_back(writeRunsCsv(dir / ("f" + std::to_string(f) +
                                             ".csv"),
                                      f % 2 ? "lud" : "bfs", values));
    }

    compare::CaptureOptions serial;
    serial.jobs = 1;
    compare::CaptureOptions wide;
    wide.jobs = 8;
    auto a = compare::saveBundle(compare::captureBaseline(inputs, serial),
                                 (dir / "a.json").string());
    auto b = compare::saveBundle(compare::captureBaseline(inputs, wide),
                                 (dir / "b.json").string());
    EXPECT_EQ(slurp(a), slurp(b));

    // Recapture (the kill-then-recapture scenario: nothing carried
    // over from the first run) must reproduce the same bytes, and a
    // load-save round trip must too — nothing time- or host-dependent
    // may leak into the bundle.
    auto c = compare::saveBundle(compare::captureBaseline(inputs, wide),
                                 (dir / "c.json").string());
    EXPECT_EQ(slurp(a), slurp(c));
    auto loaded = compare::loadBundle(a);
    auto d = compare::saveBundle(loaded, (dir / "d.json").string());
    EXPECT_EQ(slurp(a), slurp(d));

    // Directory form resolves to <dir>/baseline.json.
    auto e = compare::saveBundle(loaded, (dir / "bundle_dir").string());
    EXPECT_EQ(e, (dir / "bundle_dir" / "baseline.json").string());
    EXPECT_EQ(slurp(a), slurp(e));
}

TEST(BaselineCapture, JournalAndCsvGroupAlike)
{
    // One campaign, journaled and written as a tidy CSV: two machines
    // and two instances a round, so each grouping column splits it.
    auto dir = scratchDir("capture_group");
    std::string spec = (dir / "faas.json").string();
    std::ofstream(spec) << R"({"backend": "faas", "workload": "bfs-CUDA",
        "machines": ["machine1", "machine3"], "seed": 5,
        "concurrency": 2,
        "experiment": {"rule": "fixed", "params": {"count": 12}}})";
    std::string base = (dir / "run").string();
    std::ostringstream out, err;
    ASSERT_EQ(cli::runCli({"run", "--config", spec, "--journal",
                           base + ".jsonl", "--out", base},
                          out, err),
              0)
        << err.str();

    for (const char *column : {"workload", "machine", "backend", "day"}) {
        SCOPED_TRACE(column);
        compare::CaptureOptions options;
        options.groupBy = column;
        auto fromJournal =
            compare::captureBaseline({base + ".jsonl"}, options);
        auto fromCsv = compare::captureBaseline({base + ".csv"}, options);
        ASSERT_EQ(fromJournal.scenarios.size(), fromCsv.scenarios.size());
        for (size_t i = 0; i < fromCsv.scenarios.size(); ++i) {
            EXPECT_EQ(fromJournal.scenarios[i].name,
                      fromCsv.scenarios[i].name);
            EXPECT_EQ(fromJournal.scenarios[i].sorted.size(),
                      fromCsv.scenarios[i].sorted.size());
        }
    }
    // A column neither holds groups every row as "all".
    compare::CaptureOptions options;
    options.groupBy = "nosuch";
    EXPECT_EQ(compare::captureBaseline({base + ".jsonl"}, options)
                  .scenarios.front()
                  .name,
              "all");
}

/** Capture one scenario's worth of values as a bundle. */
compare::BaselineBundle
bundleOf(const fs::path &dir, const std::string &tag,
         const std::vector<double> &values,
         const std::string &workload = "bfs")
{
    auto path = writeRunsCsv(dir / (tag + ".csv"), workload, values);
    return compare::captureBaseline({path});
}

std::vector<double>
jittered(double center, double spread, size_t n)
{
    std::vector<double> values;
    for (size_t i = 0; i < n; ++i) {
        double phase = static_cast<double>(i % 7) / 7.0 - 0.5;
        values.push_back(center + spread * phase);
    }
    return values;
}

TEST(Compare, SelfCompareAlwaysPasses)
{
    auto dir = scratchDir("self");
    auto base = bundleOf(dir, "base", jittered(10.0, 1.4, 30));
    auto report = compare::compareBundles(base, base);
    EXPECT_TRUE(report.pass());
    EXPECT_EQ(report.exitCode(), 0);
    ASSERT_EQ(report.scenarios.size(), 1u);
    EXPECT_EQ(report.scenarios[0].ksDistance, 0.0);
    EXPECT_EQ(report.scenarios[0].speedup.speedup, 1.0);
    EXPECT_TRUE(report.missing.empty());
    EXPECT_TRUE(report.unbaselined.empty());
}

TEST(Compare, ConfirmedRegressionFailsAndImprovementPasses)
{
    auto dir = scratchDir("directions");
    auto values = jittered(10.0, 0.8, 40);
    auto base = bundleOf(dir, "base", values);

    std::vector<double> slower, faster;
    for (double v : values) {
        slower.push_back(v * 1.10);
        faster.push_back(v * 0.60);
    }
    auto regressed =
        compare::compareBundles(base, bundleOf(dir, "slow", slower));
    EXPECT_FALSE(regressed.pass());
    EXPECT_EQ(regressed.exitCode(), 1);
    ASSERT_FALSE(regressed.scenarios[0].violations.empty());
    EXPECT_EQ(regressed.scenarios[0].violations[0].what, "median");
    // Confirmed means the whole bootstrap interval lies below 1.
    EXPECT_LT(regressed.scenarios[0].speedup.ci.upper, 1.0);

    // A large improvement shifts the distribution massively (KS near
    // 1) yet must pass: improvements are never violations.
    auto improved =
        compare::compareBundles(base, bundleOf(dir, "fast", faster));
    EXPECT_TRUE(improved.pass()) << improved.renderText();
    EXPECT_GT(improved.scenarios[0].ksDistance, 0.9);
}

TEST(Compare, UnconfirmedMedianShiftDoesNotFail)
{
    // Median nudged past the ratio tolerance, but with so much overlap
    // (wide spread, small n) that the bootstrap CI straddles 1: the
    // Speedup-Test discipline reports it without failing the gate.
    auto dir = scratchDir("unconfirmed");
    auto base = bundleOf(dir, "base", jittered(10.0, 8.0, 8));
    std::vector<double> nudged;
    for (double v : jittered(10.0, 8.0, 8))
        nudged.push_back(v * 1.08);
    auto report =
        compare::compareBundles(base, bundleOf(dir, "nudged", nudged));
    for (const auto &violation : report.scenarios[0].violations)
        EXPECT_NE(violation.what, "median") << violation.render();
}

TEST(Compare, TinyBaselineAdditiveSlack)
{
    // base 5x10.0 vs cand 5x11.0: constant samples make the bootstrap
    // CI degenerate at 10/11, so the +10% shift is always confirmed —
    // unless the additive slack absorbs it.
    auto dir = scratchDir("slack");
    auto base = bundleOf(dir, "base", {10.0, 10.0, 10.0, 10.0, 10.0});
    auto cand = bundleOf(dir, "cand", {11.0, 11.0, 11.0, 11.0, 11.0});

    compare::CompareTolerances strict;
    strict.medianSlack = 0.0;
    auto confirmed = compare::compareBundles(base, cand, strict);
    EXPECT_FALSE(confirmed.pass());
    ASSERT_FALSE(confirmed.scenarios[0].violations.empty());
    EXPECT_EQ(confirmed.scenarios[0].violations[0].what, "median");
    // limit = 10 * 1.05 + 0 = 10.5, breached by 11.
    EXPECT_EQ(confirmed.scenarios[0].violations[0].limit, 10.5);

    compare::CompareTolerances slack = strict;
    slack.medianSlack = 1.0;
    EXPECT_TRUE(compare::compareBundles(base, cand, slack).pass());
}

TEST(Compare, MissingScenarioFailsUnbaselinedDoesNot)
{
    auto dir = scratchDir("coverage");
    auto both = compare::captureBaseline(
        {writeRunsCsv(dir / "bfs.csv", "bfs", jittered(5.0, 0.4, 12)),
         writeRunsCsv(dir / "lud.csv", "lud", jittered(9.0, 0.4, 12))});
    auto lud_only = compare::captureBaseline(
        {writeRunsCsv(dir / "lud2.csv", "lud", jittered(9.0, 0.4, 12)),
         writeRunsCsv(dir / "nw.csv", "nw", jittered(2.0, 0.2, 12))});

    auto report = compare::compareBundles(both, lud_only);
    EXPECT_FALSE(report.pass());
    EXPECT_EQ(report.exitCode(), 1);
    ASSERT_EQ(report.missing.size(), 1u);
    EXPECT_EQ(report.missing[0], "bfs");
    ASSERT_EQ(report.unbaselined.size(), 1u);
    EXPECT_EQ(report.unbaselined[0], "nw");

    // The reverse direction: only new scenarios, nothing missing.
    auto reverse = compare::compareBundles(lud_only, both);
    ASSERT_EQ(reverse.missing.size(), 1u);
    EXPECT_EQ(reverse.missing[0], "nw");
    ASSERT_EQ(reverse.unbaselined.size(), 1u);
    EXPECT_EQ(reverse.unbaselined[0], "bfs");
}

TEST(Compare, MetricMismatchThrows)
{
    auto dir = scratchDir("metric");
    auto base = bundleOf(dir, "base", {1.0, 2.0, 3.0});
    auto cand = base;
    cand.metric = "throughput";
    EXPECT_THROW(compare::compareBundles(base, cand),
                 std::invalid_argument);
}

TEST(Compare, GoldenJsonReportIsByteStable)
{
    // The checked-in golden was produced by `sharp baseline capture` +
    // `sharp compare --format json` on the fixture CSVs. Reproducing
    // it byte for byte pins capture, comparison (incl. the seeded
    // bootstrap), and JSON rendering all at once.
    auto baseline =
        compare::captureBaseline({fixture("baseline_runs.csv")});
    auto candidate =
        compare::captureBaseline({fixture("candidate_runs.csv")});
    // Provenance records input paths as given; the golden was captured
    // from inside the fixture directory, so align before comparing.
    baseline.inputs = {"baseline_runs.csv"};
    auto report = compare::compareBundles(baseline, candidate);
    EXPECT_FALSE(report.pass());
    EXPECT_EQ(json::writePretty(report.toJson()),
              slurp(fixture("golden_report.json")));

    // The bundle itself is pinned the same way.
    EXPECT_EQ(json::writePretty(baseline.toJson()),
              slurp(fixture("golden_bundle.json")));
}

TEST(BundleCheck, CatchesStructuralDefects)
{
    auto check_text = [](const std::string &text) {
        check::CheckResult result;
        compare::checkBaselineBundle(json::parse(text), result);
        return result;
    };

    auto unsorted = check_text(
        R"({"schema": "sharp-baseline-bundle-v1", "metric": "m",
            "scenarios": {"s": {"n": 2, "samples": [2.0, 1.0]}}})");
    EXPECT_NE(findRule(unsorted, "unsorted-samples"), nullptr);

    auto bad_count = check_text(
        R"({"schema": "sharp-baseline-bundle-v1", "metric": "m",
            "scenarios": {"s": {"n": 5, "samples": [1.0, 2.0]}}})");
    EXPECT_NE(findRule(bad_count, "inconsistent-count"), nullptr);

    auto empty = check_text(
        R"({"schema": "sharp-baseline-bundle-v1", "metric": "m",
            "scenarios": {}})");
    EXPECT_NE(findRule(empty, "empty-scenarios"), nullptr);

    auto wrong_schema = check_text(R"({"schema": "not-a-bundle"})");
    EXPECT_NE(findRule(wrong_schema, "schema"), nullptr);

    // fromJson is the strict loader built on the checker.
    EXPECT_THROW(compare::BaselineBundle::fromJson(
                     json::parse(R"({"schema": "nope"})")),
                 check::CheckFailure);
}

TEST(ReportCheck, CatchesContractViolations)
{
    auto check_text = [](const std::string &text) {
        check::CheckResult result;
        compare::checkCompareReport(json::parse(text), result);
        return result;
    };

    auto inconsistent = check_text(
        R"({"schema": "sharp-compare-report-v1", "metric": "m",
            "pass": true, "exit_code": 1, "scenarios": {}})");
    EXPECT_NE(findRule(inconsistent, "exit-code"), nullptr);

    auto bad_ks = check_text(
        R"({"schema": "sharp-compare-report-v1", "metric": "m",
            "pass": true, "exit_code": 0,
            "scenarios": {"s": {"ks_distance": 1.5}}})");
    EXPECT_NE(findRule(bad_ks, "ks-range"), nullptr);

    auto bad_ci = check_text(
        R"({"schema": "sharp-compare-report-v1", "metric": "m",
            "pass": true, "exit_code": 0,
            "scenarios": {"s": {"speedup":
                {"speedup": 1.0, "ci_lower": 1.2, "ci_upper": 0.9}}}})");
    EXPECT_NE(findRule(bad_ci, "ci-order"), nullptr);
}

TEST(CalibrationGate, CurrentOnlyCellsAreReportedNotGated)
{
    // The symmetric-cell fix: entries only the current summary has
    // must surface in the report without failing the gate (new rules
    // or distributions cannot break an old baseline), while a vanished
    // entry still fails.
    auto baseline = json::parse(
        R"({"rules": {"ks": {"lognormal":
            {"median_samples": 100, "median_ks": 0.05}}}})");
    auto current = json::parse(
        R"({"rules": {"ks": {"lognormal":
                {"median_samples": 100, "median_ks": 0.05}},
            "shiny-new": {"lognormal":
                {"median_samples": 40, "median_ks": 0.02}}}})");

    auto report = calibrate::compareToBaseline(baseline, current);
    EXPECT_TRUE(report.pass);
    ASSERT_EQ(report.unbaselined.size(), 1u);
    EXPECT_EQ(report.unbaselined[0], "shiny-new/lognormal");
    EXPECT_NE(report.render().find("shiny-new/lognormal"),
              std::string::npos);

    // The asymmetric direction is unchanged: a baseline cell missing
    // from current is a violation.
    auto shrunk = calibrate::compareToBaseline(current, baseline);
    EXPECT_FALSE(shrunk.pass);
    ASSERT_EQ(shrunk.violations.size(), 1u);
    EXPECT_EQ(shrunk.violations[0].what, "missing entry");
    EXPECT_TRUE(shrunk.unbaselined.empty());
}

} // anonymous namespace
