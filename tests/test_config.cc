/**
 * @file
 * Tests for the JSON experiment configuration and its round trip —
 * the property that lets SHARP recreate a previous experiment from
 * its recorded metadata.
 */

#include <gtest/gtest.h>

#include "check/diagnostic.hh"
#include "core/config.hh"
#include "core/stopping/ks_rule.hh"
#include "json/parser.hh"
#include "json/writer.hh"

namespace
{

using namespace sharp::core;
namespace json = sharp::json;

TEST(ExperimentConfig, ParsesFullDocument)
{
    auto doc = json::parse(R"({
        "rule": "ks",
        "params": {"threshold": 0.1, "min": 20},
        "warmup": 3,
        "min": 20,
        "max": 1000,
        "checkInterval": 2,
        "seed": 42
    })");
    ExperimentConfig config = ExperimentConfig::fromJson(doc);
    EXPECT_EQ(config.ruleName, "ks");
    EXPECT_DOUBLE_EQ(config.ruleParams.at("threshold"), 0.1);
    EXPECT_EQ(config.options.warmupRuns, 3u);
    EXPECT_EQ(config.options.minSamples, 20u);
    EXPECT_EQ(config.options.maxSamples, 1000u);
    EXPECT_EQ(config.seed, 42u);
    // The legacy key loads but is not carried forward.
    EXPECT_EQ(config.toJson().find("checkInterval"), nullptr);
}

TEST(ExperimentConfig, DefaultsApply)
{
    ExperimentConfig config =
        ExperimentConfig::fromJson(json::parse("{}"));
    EXPECT_EQ(config.ruleName, "ks");
    EXPECT_EQ(config.options.warmupRuns, 0u);
    EXPECT_EQ(config.seed, 1u);
}

TEST(ExperimentConfig, MakeRuleHonorsParams)
{
    auto doc = json::parse(
        R"({"rule": "ks", "params": {"threshold": 0.3}})");
    ExperimentConfig config = ExperimentConfig::fromJson(doc);
    auto rule = config.makeRule();
    auto *ks = dynamic_cast<KsHalvesRule *>(rule.get());
    ASSERT_NE(ks, nullptr);
    EXPECT_DOUBLE_EQ(ks->ksThreshold(), 0.3);
}

TEST(ExperimentConfig, JsonRoundTrip)
{
    auto doc = json::parse(R"({
        "rule": "ci",
        "params": {"threshold": 0.05},
        "warmup": 2, "min": 10, "max": 500, "checkInterval": 1,
        "seed": 7
    })");
    ExperimentConfig original = ExperimentConfig::fromJson(doc);
    ExperimentConfig reparsed =
        ExperimentConfig::fromJson(original.toJson());
    EXPECT_EQ(reparsed.ruleName, original.ruleName);
    EXPECT_EQ(reparsed.ruleParams, original.ruleParams);
    EXPECT_EQ(reparsed.options.warmupRuns, original.options.warmupRuns);
    EXPECT_EQ(reparsed.options.maxSamples, original.options.maxSamples);
    EXPECT_EQ(reparsed.seed, original.seed);
}

TEST(ExperimentConfig, RejectsUnknownRule)
{
    auto doc = json::parse(R"({"rule": "definitely-not-a-rule"})");
    EXPECT_THROW(ExperimentConfig::fromJson(doc), std::invalid_argument);
}

TEST(ExperimentConfig, RejectsBadBounds)
{
    EXPECT_THROW(ExperimentConfig::fromJson(
                     json::parse(R"({"min": 100, "max": 10})")),
                 std::invalid_argument);
    EXPECT_THROW(ExperimentConfig::fromJson(
                     json::parse(R"({"warmup": -1})")),
                 std::invalid_argument);
    EXPECT_THROW(ExperimentConfig::fromJson(
                     json::parse(R"({"min": 30.5})")),
                 std::invalid_argument);
    EXPECT_THROW(ExperimentConfig::fromJson(
                     json::parse(R"({"max": 1e300})")),
                 std::invalid_argument);
}

TEST(ExperimentConfig, LegacyCheckIntervalLoadsWithOneNote)
{
    // Any value loads: the key is ignored, as `sharp run` always did.
    for (const char *value : {"0", "1", "50", "\"x\""}) {
        auto doc = json::parse(std::string("{\"min\": 30,\n"
                                           " \"checkInterval\": ") +
                               value + "}");
        ExperimentConfig config = ExperimentConfig::fromJson(doc);
        EXPECT_EQ(config.options.minSamples, 30u);

        sharp::check::CheckResult result;
        checkExperimentConfig(doc, result);
        ASSERT_EQ(result.diagnostics().size(), 1u) << value;
        const auto &note = result.diagnostics()[0];
        EXPECT_EQ(note.severity, sharp::check::Severity::Note);
        EXPECT_EQ(note.rule, "obsolete-check-interval");
        EXPECT_EQ(note.line, 2u);
    }
}

TEST(ExperimentConfig, RejectsNonNumericParams)
{
    auto doc =
        json::parse(R"({"rule": "ks", "params": {"threshold": "x"}})");
    EXPECT_THROW(ExperimentConfig::fromJson(doc), std::invalid_argument);
}

TEST(ExperimentConfig, RejectsNonObjectDocument)
{
    EXPECT_THROW(ExperimentConfig::fromJson(json::parse("[1,2]")),
                 std::invalid_argument);
}

TEST(ExperimentConfig, BadRuleParamsSurfaceAtParseTime)
{
    auto doc = json::parse(
        R"({"rule": "ks", "params": {"threshold": -0.5}})");
    EXPECT_THROW(ExperimentConfig::fromJson(doc), std::invalid_argument);
    // Counts past 2^53 are rejected before the rounding cast to size_t.
    EXPECT_THROW(ExperimentConfig::fromJson(json::parse(
                     R"({"rule": "fixed", "params": {"count": 1e300}})")),
                 std::invalid_argument);
    EXPECT_THROW(ExperimentConfig::fromJson(json::parse(
                     R"({"rule": "ks", "params": {"min": 1e16}})")),
                 std::invalid_argument);
}

} // anonymous namespace
