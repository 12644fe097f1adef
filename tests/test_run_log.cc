/**
 * @file
 * Tests for the RunLog: tidy CSV shape (one row per concurrent
 * instance), the field dictionary, and the save/reload round trip.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "record/run_log.hh"
#include "support/csv.hh"
#include "support/metadata.hh"

namespace
{

using namespace sharp::record;

RunLog
sampleLog()
{
    RunLog log("fig5-hotspot", "execution_time");
    for (size_t run = 0; run < 3; ++run) {
        for (size_t inst = 0; inst < 2; ++inst) {
            RunRecord rec;
            rec.run = run;
            rec.instance = inst;
            rec.workload = "hotspot";
            rec.backend = "sim";
            rec.machine = inst == 0 ? "machine1" : "machine3";
            rec.day = 2;
            rec.warmup = run == 0;
            rec.metrics["execution_time"] =
                4.0 + static_cast<double>(run) +
                0.1 * static_cast<double>(inst);
            rec.metrics["cold_start"] = run == 0 ? 1.0 : 0.0;
            log.add(rec);
        }
    }
    return log;
}

TEST(RunLog, TidyShapeOneRowPerInstance)
{
    RunLog log = sampleLog();
    EXPECT_EQ(log.size(), 6u);
    CsvTable csv = log.toCsv();
    EXPECT_EQ(csv.numRows(), 6u);
    // Fixed columns followed by metric columns.
    auto cols = csv.columns();
    ASSERT_GE(cols.size(), 11u);
    EXPECT_EQ(cols[0], "run");
    EXPECT_EQ(cols[1], "instance");
    EXPECT_EQ(cols[2], "attempt");
    EXPECT_TRUE(findColumn(csv.columns(), "failure").has_value());
    EXPECT_TRUE(findColumn(csv.columns(), "execution_time").has_value());
    EXPECT_TRUE(findColumn(csv.columns(), "cold_start").has_value());
    // A clean log records attempt 0 and failure "none" everywhere.
    EXPECT_EQ(csv.cell(0, *findColumn(csv.columns(), "attempt")), "0");
    EXPECT_EQ(csv.cell(0, *findColumn(csv.columns(), "failure")), "none");
}

TEST(RunLog, FailedAndRetriedRowsAreRecorded)
{
    RunLog log("flaky", "execution_time");
    RunRecord failed;
    failed.run = 0;
    failed.workload = "w";
    failed.failure = FailureKind::Timeout;
    log.add(failed);

    RunRecord retried;
    retried.run = 0;
    retried.attempt = 1;
    retried.workload = "w";
    retried.metrics["execution_time"] = 2.5;
    log.add(retried);

    CsvTable csv = log.toCsv();
    EXPECT_EQ(csv.cell(0, *findColumn(csv.columns(), "failure")), "timeout");
    EXPECT_EQ(csv.cell(1, *findColumn(csv.columns(), "attempt")), "1");
    EXPECT_EQ(csv.cell(1, *findColumn(csv.columns(), "failure")), "none");
    // Failed rows never contribute to the analysed series.
    auto values = log.primaryValues();
    ASSERT_EQ(values.size(), 1u);
    EXPECT_DOUBLE_EQ(values[0], 2.5);
}

TEST(RunLog, PrimaryValuesExcludeWarmups)
{
    RunLog log = sampleLog();
    auto values = log.primaryValues();
    // Runs 1 and 2 only, 2 instances each.
    ASSERT_EQ(values.size(), 4u);
    EXPECT_DOUBLE_EQ(values[0], 5.0);
}

TEST(RunLog, MetricNamesInFirstSeenOrder)
{
    RunLog log = sampleLog();
    auto names = log.metricNames();
    // std::map orders metrics alphabetically within a record.
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "cold_start");
    EXPECT_EQ(names[1], "execution_time");
}

TEST(RunLog, MetadataHasFieldDictionaryAndConfig)
{
    RunLog log = sampleLog();
    log.setConfigEntry("stopping_rule", "ks(threshold=0.1)");
    log.describeMetric("cold_start",
                       "1.0 when the invocation paid a cold start");
    MetadataDocument doc = log.toMetadata();
    EXPECT_EQ(doc.getTitle(), "fig5-hotspot");
    EXPECT_EQ(doc.get("Experiment", "records").value(), "6");
    EXPECT_EQ(doc.get("Configuration", "stopping_rule").value(),
              "ks(threshold=0.1)");
    EXPECT_NE(doc.get("Field Dictionary", "cold_start")
                  .value()
                  .find("cold start"),
              std::string::npos);
    EXPECT_TRUE(doc.get("Field Dictionary", "warmup").has_value());
    EXPECT_EQ(doc.get("Experiment", "sharp_version").value(),
              "sharp-cpp 1.0.0");
}

TEST(RunLog, SystemInfoEmbedded)
{
    RunLog log = sampleLog();
    log.setSystemInfo(
        describeSimulatedMachine(sharp::sim::machineById("machine1")));
    MetadataDocument doc = log.toMetadata();
    EXPECT_EQ(doc.get("System Under Test", "cpu_model").value(),
              "AMD EPYC 7443");
}

TEST(RunLog, SaveWritesPairedFiles)
{
    namespace fs = std::filesystem;
    fs::path base = fs::temp_directory_path() / "sharp_test_runlog";
    RunLog log = sampleLog();
    log.save(base.string());

    ASSERT_TRUE(fs::exists(base.string() + ".csv"));
    ASSERT_TRUE(fs::exists(base.string() + ".md"));

    CsvTable csv = sharp::support::loadCsv(base.string() + ".csv");
    EXPECT_EQ(csv.numRows(), 6u);
    auto times = sharp::support::numericColumnWhere(csv, "execution_time",
                                                    "warmup", "false");
    EXPECT_EQ(times.size(), 4u);

    MetadataDocument doc =
        sharp::support::loadMetadata(base.string() + ".md");
    EXPECT_EQ(doc.get("Experiment", "name").value(), "fig5-hotspot");

    // save() streams its rows; they are the bytes toCsv() serializes,
    // quoted fields included.
    RunRecord quoted;
    quoted.workload = "a,b \"c\"";
    quoted.metrics = {{"execution_time", 0.25}, {"note\nline", 1.0}};
    log.add(quoted);
    log.save(base.string());
    std::ifstream in(base.string() + ".csv", std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes, log.toCsv().toCsv());

    fs::remove(base.string() + ".csv");
    fs::remove(base.string() + ".md");
}

TEST(RunLog, ConfigEntryReplacesInPlace)
{
    RunLog log("x");
    log.setConfigEntry("k", "1");
    log.setConfigEntry("k", "2");
    EXPECT_EQ(log.toMetadata().get("Configuration", "k").value(), "2");
}

TEST(RunLog, RecordsWithDifferentMetricSetsPadEmpty)
{
    RunLog log("mixed");
    RunRecord a;
    a.workload = "w";
    a.metrics["execution_time"] = 1.0;
    log.add(a);
    RunRecord b = a;
    b.metrics["extra"] = 2.0;
    log.add(b);
    CsvTable csv = log.toCsv();
    auto extra_idx = findColumn(csv.columns(), "extra");
    ASSERT_TRUE(extra_idx.has_value());
    EXPECT_EQ(csv.cell(0, *extra_idx), "");
    EXPECT_EQ(csv.cell(1, *extra_idx), "2");
}

} // anonymous namespace
