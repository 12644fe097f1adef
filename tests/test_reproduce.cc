/**
 * @file
 * Tests for experiment reproduction from metadata — the §IV-d claim
 * that SHARP can parse its own records to recreate a run. On the
 * simulated testbed this must be bit-exact.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "core/stopping/ks_rule.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "launcher/launcher.hh"
#include "launcher/reproduce.hh"
#include "launcher/sim_backend.hh"
#include "record/journal.hh"
#include "record/metadata.hh"
#include "simd/dispatch.hh"

namespace
{

using namespace sharp;
using launcher::ReproSpec;

ReproSpec
hotspotSpec()
{
    ReproSpec spec;
    spec.backendKind = "sim";
    spec.workload = "hotspot";
    spec.machines = {"machine1"};
    spec.day = 2;
    spec.seed = 1234;
    spec.concurrency = 1;
    spec.jobs = 4;
    spec.experiment.ruleName = "ks";
    spec.experiment.ruleParams = {{"threshold", 0.1}, {"min", 20}};
    spec.experiment.options.maxSamples = 1500;
    return spec;
}

TEST(Reproduce, SpecRoundTripsThroughMetadata)
{
    ReproSpec spec = hotspotSpec();
    record::RunLog log("hotspot");
    launcher::annotate(log, spec);
    ReproSpec again =
        launcher::reproSpecFromMetadata(log.toMetadata());
    EXPECT_EQ(again.backendKind, spec.backendKind);
    EXPECT_EQ(again.workload, spec.workload);
    EXPECT_EQ(again.machines, spec.machines);
    EXPECT_EQ(again.day, spec.day);
    EXPECT_EQ(again.seed, spec.seed);
    EXPECT_EQ(again.concurrency, spec.concurrency);
    EXPECT_EQ(again.jobs, spec.jobs);
    EXPECT_EQ(again.experiment.ruleName, spec.experiment.ruleName);
    EXPECT_EQ(again.experiment.ruleParams, spec.experiment.ruleParams);
    EXPECT_EQ(again.experiment.options.maxSamples,
              spec.experiment.options.maxSamples);
}

TEST(Reproduce, FaultToleranceFieldsRoundTripThroughMetadata)
{
    ReproSpec spec = hotspotSpec();
    spec.maxFailures = 7;
    spec.maxFailureRate = 0.25;
    spec.retry.maxAttempts = 3;
    spec.retry.backoffBaseSeconds = 0.5;
    spec.retry.jitterSeed = 13;
    spec.faultEnabled = true;
    spec.fault.flakyExitProbability = 0.1;
    spec.fault.seed = 21;

    record::RunLog log("hotspot");
    launcher::annotate(log, spec);
    ReproSpec again =
        launcher::reproSpecFromMetadata(log.toMetadata());
    EXPECT_EQ(again.maxFailures, 7u);
    EXPECT_DOUBLE_EQ(again.maxFailureRate, 0.25);
    EXPECT_EQ(again.retry.maxAttempts, 3u);
    EXPECT_DOUBLE_EQ(again.retry.backoffBaseSeconds, 0.5);
    EXPECT_EQ(again.retry.jitterSeed, 13u);
    ASSERT_TRUE(again.faultEnabled);
    EXPECT_DOUBLE_EQ(again.fault.flakyExitProbability, 0.1);
    EXPECT_EQ(again.fault.seed, 21u);
}

TEST(Reproduce, LargeSeedsRoundTripThroughSpecJson)
{
    // The journal spec header round-trips through JSON; seeds above
    // 2^53 must survive exactly or a resumed campaign replays a
    // different jitter/fault schedule than the interrupted one.
    ReproSpec spec = hotspotSpec();
    spec.seed = (1ULL << 53) + 1;
    spec.retry.maxAttempts = 2;
    spec.retry.backoffBaseSeconds = 0.1;
    spec.retry.jitterFraction = 0.5;
    spec.retry.jitterSeed = (1ULL << 60) + 3;
    spec.faultEnabled = true;
    spec.fault.flakyExitProbability = 0.1;
    spec.fault.seed = 0xFFFFFFFFFFFFFFFFULL;

    ReproSpec again = ReproSpec::fromJson(
        sharp::json::parse(sharp::json::write(spec.toJson())));
    EXPECT_EQ(again.seed, (1ULL << 53) + 1);
    EXPECT_EQ(again.retry.jitterSeed, (1ULL << 60) + 3);
    EXPECT_EQ(again.fault.seed, 0xFFFFFFFFFFFFFFFFULL);
}

TEST(Reproduce, StatsCacheStateRoundTripsThroughMetadata)
{
    // Metadata and journal headers recorded while the statistics
    // engine still had an off switch may carry repro_stats_cache or
    // "stats_cache". They still load, with the key ignored: the engine
    // always matched batch recomputation bit for bit, so the recorded
    // run is the default run, and a re-annotation drops the key.
    ReproSpec spec = hotspotSpec();
    spec.experiment.seed = spec.seed; // as every loader sets it
    std::string expected = json::write(spec.toJson());
    for (const char *legacy : {"off", "on", "no", "maybe"}) {
        record::RunLog log("hotspot");
        launcher::annotate(log, spec);
        log.setConfigEntry("repro_stats_cache", legacy);
        ReproSpec again =
            launcher::reproSpecFromMetadata(log.toMetadata());
        EXPECT_EQ(json::write(again.toJson()), expected) << legacy;

        record::RunLog rewritten("hotspot");
        launcher::annotate(rewritten, again);
        EXPECT_FALSE(rewritten.toMetadata().get("Configuration",
                                                "repro_stats_cache"))
            << legacy;
    }

    // And through the JSON spec form (journal headers).
    json::Value legacy_doc = spec.toJson();
    legacy_doc.set("stats_cache", false);
    ReproSpec json_again =
        ReproSpec::fromJson(json::parse(json::write(legacy_doc)));
    EXPECT_EQ(json::write(json_again.toJson()), expected);
}

TEST(Reproduce, MetadataWithoutJobsDefaultsToSerial)
{
    // Metadata recorded before the parallel layer lacks repro_jobs;
    // such documents must still reproduce (with jobs = 1).
    record::RunLog log("hotspot");
    launcher::annotate(log, hotspotSpec());
    record::MetadataDocument doc = log.toMetadata();
    doc.remove("Configuration", "repro_jobs");
    ReproSpec spec = launcher::reproSpecFromMetadata(doc);
    EXPECT_EQ(spec.jobs, 1u);
}

TEST(Reproduce, AnnotateRecordsActiveSimdBackend)
{
    // Provenance: the backend the dispatch layer actually selected is
    // recorded alongside the spec, so a replay on different silicon
    // can explain timing (not result) differences.
    record::RunLog log("hotspot");
    launcher::annotate(log, hotspotSpec());
    auto entry =
        log.toMetadata().get("Configuration", "repro_simd_backend");
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(*entry, std::string(simd::activeBackendName()));
    // The backend is environment, not spec: it must not leak into the
    // reproduced spec JSON.
    ReproSpec spec = launcher::reproSpecFromMetadata(log.toMetadata());
    EXPECT_EQ(sharp::json::write(spec.toJson())
                  .find("simd"),
              std::string::npos);
}

TEST(Reproduce, SimulatedReproductionIsBitExact)
{
    launcher::LaunchReport first =
        launcher::runCampaign(hotspotSpec()).report;

    // Round-trip the metadata through a real file, as a user would.
    namespace fs = std::filesystem;
    fs::path path = fs::temp_directory_path() / "sharp_repro_meta.md";
    first.log.toMetadata().save(path.string());
    record::MetadataDocument doc =
        record::MetadataDocument::load(path.string());
    fs::remove(path);

    launcher::LaunchReport second =
        launcher::runCampaign(launcher::reproSpecFromMetadata(doc))
            .report;

    ASSERT_EQ(second.series.size(), first.series.size());
    for (size_t i = 0; i < first.series.size(); ++i)
        EXPECT_DOUBLE_EQ(second.series[i], first.series[i]) << i;
    EXPECT_EQ(second.ruleFired, first.ruleFired);
}

TEST(Reproduce, FaasSpecBuildsClusterBackend)
{
    ReproSpec spec;
    spec.backendKind = "faas";
    spec.workload = "bfs-CUDA";
    spec.machines = {"machine1", "machine3"};
    spec.seed = 5;
    spec.concurrency = 2;
    spec.experiment.ruleName = "fixed";
    spec.experiment.ruleParams = {{"count", 30}};
    spec.experiment.options.maxSamples = 200;

    auto report = launcher::runCampaign(spec).report;
    EXPECT_TRUE(report.ruleFired);
    EXPECT_GE(report.series.size(), 30u);
    // Both workers served requests.
    bool m1 = false, m3 = false;
    for (const auto &rec : report.log.records()) {
        m1 |= rec.machine == "machine1";
        m3 |= rec.machine == "machine3";
    }
    EXPECT_TRUE(m1);
    EXPECT_TRUE(m3);
}

TEST(Reproduce, PhasedSpecBuildsPhasedBackend)
{
    ReproSpec spec;
    spec.backendKind = "sim-phased";
    spec.workload = "leukocyte";
    spec.machines = {"machine1"};
    spec.experiment.ruleName = "fixed";
    spec.experiment.ruleParams = {{"count", 10}};

    auto backend = launcher::makeBackend(spec);
    auto result = backend->run();
    EXPECT_GT(result.metric("tracking_time"), 0.0);
}

TEST(Reproduce, RejectsIncompleteMetadata)
{
    record::MetadataDocument empty;
    EXPECT_THROW(launcher::reproSpecFromMetadata(empty),
                 std::invalid_argument);

    record::RunLog log("x");
    ReproSpec spec = hotspotSpec();
    spec.backendKind = "quantum"; // unknown kind round-trips but...
    launcher::annotate(log, spec);
    ReproSpec parsed =
        launcher::reproSpecFromMetadata(log.toMetadata());
    EXPECT_THROW(launcher::makeBackend(parsed), std::invalid_argument);
}

TEST(Reproduce, RejectsMalformedNumbers)
{
    record::RunLog log("x");
    launcher::annotate(log, hotspotSpec());
    record::MetadataDocument doc = log.toMetadata();
    for (const char *seed :
         {"not-a-number", "-1", "18446744073709551616"}) {
        doc.set("Configuration", "repro_seed", seed);
        EXPECT_THROW(launcher::reproSpecFromMetadata(doc),
                     std::invalid_argument)
            << seed;
    }
}

TEST(Reproduce, FullWidthSeedRoundTripsThroughMetadata)
{
    // 2^64 - 59: above both 2^53 (doubles) and 2^63 (signed longs).
    ReproSpec spec = hotspotSpec();
    spec.seed = 18446744073709551557ull;
    record::RunLog log("hotspot");
    launcher::annotate(log, spec);
    EXPECT_EQ(launcher::reproSpecFromMetadata(log.toMetadata()).seed,
              spec.seed);
}

TEST(Reproduce, JsonSpecRoundTrip)
{
    ReproSpec spec = hotspotSpec();
    spec.backendKind = "faas";
    spec.machines = {"machine1", "machine3"};
    spec.concurrency = 2;
    ReproSpec again = ReproSpec::fromJson(spec.toJson());
    EXPECT_EQ(again.backendKind, spec.backendKind);
    EXPECT_EQ(again.workload, spec.workload);
    EXPECT_EQ(again.machines, spec.machines);
    EXPECT_EQ(again.day, spec.day);
    EXPECT_EQ(again.seed, spec.seed);
    EXPECT_EQ(again.concurrency, spec.concurrency);
    EXPECT_EQ(again.experiment.ruleName, spec.experiment.ruleName);
    EXPECT_EQ(again.experiment.ruleParams, spec.experiment.ruleParams);
}

TEST(Reproduce, JsonSpecDefaults)
{
    ReproSpec spec = ReproSpec::fromJson(
        sharp::json::parse(R"({"workload": "bfs"})"));
    EXPECT_EQ(spec.backendKind, "sim");
    EXPECT_EQ(spec.machines, std::vector<std::string>{"machine1"});
    EXPECT_EQ(spec.concurrency, 1u);
    EXPECT_EQ(spec.experiment.ruleName, "ks");
}

TEST(Reproduce, JsonSpecRejectsBadValues)
{
    EXPECT_THROW(ReproSpec::fromJson(sharp::json::parse("[1]")),
                 std::invalid_argument);
    EXPECT_THROW(ReproSpec::fromJson(sharp::json::parse(
                     R"({"workload": "bfs", "concurrency": 0})")),
                 std::invalid_argument);
    EXPECT_THROW(ReproSpec::fromJson(sharp::json::parse(
                     R"({"workload": "bfs", "machines": "machine1"})")),
                 std::invalid_argument);
}

TEST(Reproduce, ReproducedLogCanSeedAnotherReproduction)
{
    ReproSpec spec = hotspotSpec();
    spec.experiment.options.maxSamples = 300;
    auto reproduce = [](const launcher::LaunchReport &from) {
        return launcher::runCampaign(
                   launcher::reproSpecFromMetadata(from.log.toMetadata()))
            .report;
    };
    auto first = launcher::runCampaign(spec).report;
    auto second = reproduce(first);
    auto third = reproduce(second);
    ASSERT_EQ(third.series.size(), second.series.size());
    for (size_t i = 0; i < second.series.size(); ++i)
        EXPECT_DOUBLE_EQ(third.series[i], second.series[i]);
}

TEST(RunCampaign, IncarnationStaysOutOfTheRecord)
{
    namespace fs = std::filesystem;
    fs::path journal = fs::temp_directory_path() / "sharp_run_epoch.jsonl";
    ReproSpec spec = hotspotSpec();
    spec.experiment.options.maxSamples = 50;
    spec.fault.hangRecoverProbability = 1.0;
    spec.fault.hangRecoverSeconds = 1e-4;
    spec.faultEnabled = true;
    launcher::CampaignIo io;
    io.journalPath = journal.string();
    io.incarnation = 3;
    launcher::CampaignRun run = launcher::runCampaign(spec, io);

    EXPECT_EQ(run.spec.fault.incarnation, 0u);
    auto recorded = run.report.log.toMetadata().get("Configuration",
                                                    "repro_fault");
    ASSERT_TRUE(recorded.has_value());
    EXPECT_EQ(json::parse(*recorded).getUint64("incarnation", 9), 0u);
    json::Value header = record::readJournal(journal.string()).spec;
    EXPECT_EQ(header.find("fault")->getUint64("incarnation", 9), 0u);
    fs::remove(journal);
}

} // anonymous namespace
