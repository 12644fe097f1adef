/**
 * @file
 * Cross-module integration tests: full SHARP pipelines from launcher
 * through logging to reporting, mirroring the paper's experiments in
 * miniature.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "core/config.hh"
#include "core/stopping/ks_rule.hh"
#include "core/stopping/meta_rule.hh"
#include "json/parser.hh"
#include "launcher/faas_backend.hh"
#include "launcher/launcher.hh"
#include "launcher/sim_backend.hh"
#include "record/csv.hh"
#include "record/metadata.hh"
#include "report/compare.hh"
#include "report/report.hh"
#include "sim/faas.hh"
#include "sim/machine.hh"
#include "sim/rodinia.hh"
#include "stats/ecdf.hh"
#include "stats/similarity.hh"
#include "support/csv.hh"
#include "support/metadata.hh"

namespace
{

using namespace sharp;

TEST(Integration, LaunchLogAnalyzeRoundTrip)
{
    // Launch a simulated benchmark with the KS rule, persist the tidy
    // artifacts, reload them, and analyze — the full SHARP loop.
    namespace fs = std::filesystem;
    auto backend = std::make_shared<launcher::SimBackend>(
        sim::rodiniaByName("hotspot"), sim::machineById("machine1"), 0,
        99);
    launcher::LaunchOptions opts;
    opts.warmupRounds = 2;
    opts.maxSamples = 2000;
    launcher::Launcher l(backend,
                         std::make_unique<core::KsHalvesRule>(0.1, 20),
                         opts);
    launcher::LaunchReport report = l.launch();
    ASSERT_TRUE(report.ruleFired);

    report.log.setSystemInfo(record::describeSimulatedMachine(
        sim::machineById("machine1")));
    fs::path base = fs::temp_directory_path() / "sharp_integration";
    report.log.save(base.string());

    // Reload and verify the data round-trips.
    record::CsvTable csv = support::loadCsv(base.string() + ".csv");
    auto measured = support::numericColumnWhere(csv, "execution_time",
                                                "warmup", "false");
    ASSERT_EQ(measured.size(), report.series.size());

    record::MetadataDocument doc =
        support::loadMetadata(base.string() + ".md");
    EXPECT_EQ(doc.get("System Under Test", "cpu_model").value(),
              "AMD EPYC 7443");

    // Analyze the reloaded data.
    auto rep = report::DistributionReport::analyze("hotspot", measured);
    EXPECT_GT(rep.summary.mean, 3.0);
    EXPECT_LT(rep.summary.mean, 6.0);

    fs::remove(base.string() + ".csv");
    fs::remove(base.string() + ".md");
}

TEST(Integration, ConfigDrivenExperimentFromJson)
{
    // Drive an experiment end-to-end from a JSON config document.
    auto config = core::ExperimentConfig::fromJson(json::parse(R"({
        "rule": "ks",
        "params": {"threshold": 0.1, "min": 20},
        "warmup": 2, "min": 20, "max": 1500, "seed": 3
    })"));
    auto backend = std::make_shared<launcher::SimBackend>(
        sim::rodiniaByName("bfs"), sim::machineById("machine1"), 0,
        config.seed);
    launcher::LaunchOptions opts;
    opts.warmupRounds = config.options.warmupRuns;
    opts.minSamples = config.options.minSamples;
    opts.maxSamples = config.options.maxSamples;
    launcher::Launcher l(backend, config.makeRule(), opts);
    auto report = l.launch();
    EXPECT_TRUE(report.ruleFired);
    EXPECT_GE(report.series.size(), 20u);
    EXPECT_LT(report.series.size(), 1500u);
}

TEST(Integration, MetaRuleOnFaasClusterStopsSensibly)
{
    // §V-C setup in miniature: a CUDA function on the two-GPU-worker
    // cluster, adaptive stopping via the meta-heuristic.
    auto cluster = std::make_unique<sim::FaasCluster>(
        sim::rodiniaByName("srad-CUDA"),
        std::vector<sim::MachineSpec>{sim::machineById("machine1"),
                                      sim::machineById("machine3")},
        17);
    auto backend = std::make_unique<launcher::FaasBackend>(
        std::move(cluster), "srad-CUDA");
    launcher::LaunchOptions opts;
    opts.concurrency = 2;
    opts.maxSamples = 4000;
    launcher::Launcher l(std::shared_ptr<launcher::Backend>(
                             std::move(backend)),
                         std::make_unique<core::MetaRule>(), opts);
    auto report = l.launch();
    EXPECT_TRUE(report.ruleFired);
    EXPECT_LT(report.series.size(), 4000u);
    // Two workers at ~1.2x speedup apart: the pooled distribution is
    // bimodal-ish, and sampling must not stop instantly.
    EXPECT_GE(report.series.size(), 30u);
}

TEST(Integration, DayPairComparisonShowsKsNamdGap)
{
    // Fig. 5 in miniature: across day pairs of hotspot on machine2,
    // find at least one pair whose means agree (low NAMD) but whose
    // shapes differ (KS well above NAMD).
    std::vector<std::vector<double>> days;
    for (int day = 0; day < 5; ++day) {
        sim::SimulatedWorkload w(sim::rodiniaByName("hotspot"),
                                 sim::machineById("machine2"), day, 8);
        days.push_back(w.sampleMany(1200));
    }
    bool found_gap = false;
    for (size_t i = 0; i < days.size() && !found_gap; ++i) {
        for (size_t j = i + 1; j < days.size(); ++j) {
            double point = stats::namd(days[i], days[j]);
            double dist = stats::ksStatistic(days[i], days[j]);
            if (point < 0.05 && dist > 3.0 * point && dist > 0.08) {
                found_gap = true;
                break;
            }
        }
    }
    EXPECT_TRUE(found_gap);
}

TEST(Integration, StoppingSavesComputeVsFixed1000)
{
    // Fig. 1b in miniature: across a few benchmarks, the KS rule uses
    // far fewer runs than the fixed-1000 ground-truth budget while
    // landing close to the truth distribution.
    size_t adaptive_total = 0;
    size_t fixed_total = 0;
    for (const char *name : {"bfs", "lud", "kmeans", "backprop"}) {
        auto backend = std::make_shared<launcher::SimBackend>(
            sim::rodiniaByName(name), sim::machineById("machine1"), 0,
            55);
        launcher::LaunchOptions opts;
        opts.maxSamples = 1000;
        launcher::Launcher l(
            backend, std::make_unique<core::KsHalvesRule>(0.1, 20),
            opts);
        auto report = l.launch();
        adaptive_total += report.series.size();
        fixed_total += 1000;

        // Compare against a fresh 1000-run ground truth.
        sim::SimulatedWorkload truth(sim::rodiniaByName(name),
                                     sim::machineById("machine1"), 0,
                                     77);
        double ks = stats::ksStatistic(report.series.values(),
                                      truth.sampleMany(1000));
        EXPECT_LT(ks, 0.25) << name;
    }
    // Savings of at least 60% on these well-behaved benchmarks.
    EXPECT_LT(adaptive_total, fixed_total * 2 / 5);
}

} // anonymous namespace
