/**
 * @file
 * Tests for the stopping-rule suite: the paper's fixed / CI / KS rules
 * (Table IV) plus the eight distribution-tailored dynamic rules.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include "core/sample_series.hh"
#include "core/stats_cache.hh"
#include "core/stopping/adaptive_rules.hh"
#include "core/stopping/ci_rules.hh"
#include "core/stopping/fixed_rule.hh"
#include "core/stopping/ks_rule.hh"
#include "core/stopping/stopping_rule.hh"
#include "launcher/reproduce.hh"
#include "rng/nonstationary.hh"
#include "rng/sampler.hh"
#include "rng/synthetic.hh"
#include "stats/ci.hh"
#include "stats/kde.hh"

namespace
{

using namespace sharp::core;
using namespace sharp::rng;

/** Feed samples from a sampler until the rule fires or cap reached. */
size_t
runsUntilStop(StoppingRule &rule, Sampler &sampler, Xoshiro256 &gen,
              size_t cap = 5000)
{
    rule.reset();
    SampleSeries series;
    while (series.size() < cap) {
        series.append(sampler.sample(gen));
        if (series.size() < rule.minSamples())
            continue;
        if (rule.evaluate(series).stop)
            break;
    }
    return series.size();
}

TEST(FixedRule, FiresExactlyAtCount)
{
    FixedCountRule rule(100);
    SampleSeries series;
    for (int i = 0; i < 99; ++i)
        series.append(1.0);
    EXPECT_FALSE(rule.evaluate(series).stop);
    series.append(1.0);
    StopDecision d = rule.evaluate(series);
    EXPECT_TRUE(d.stop);
    EXPECT_NE(d.reason.find("100"), std::string::npos);
}

TEST(FixedRule, RejectsZeroCount)
{
    EXPECT_THROW(FixedCountRule(0), std::invalid_argument);
}

TEST(FixedRule, IgnoresDataEntirely)
{
    // The paper's criticism: fixed-N "does not adapt to the variance".
    FixedCountRule rule(50);
    Xoshiro256 gen(1);
    ConstantSampler quiet(10.0);
    CauchySampler wild(10.0, 5.0);
    EXPECT_EQ(runsUntilStop(rule, quiet, gen), 50u);
    EXPECT_EQ(runsUntilStop(rule, wild, gen), 50u);
}

TEST(MeanCiRule, StopsQuicklyOnLowVariance)
{
    MeanCiRule rule(0.05, 0.95, 10);
    Xoshiro256 gen(2);
    NormalSampler sampler(10.0, 0.1);
    size_t runs = runsUntilStop(rule, sampler, gen);
    EXPECT_LE(runs, 12u);
}

TEST(MeanCiRule, RunsLongerOnHighVariance)
{
    Xoshiro256 gen(3);
    NormalSampler noisy(10.0, 3.0);
    MeanCiRule rule(0.05, 0.95, 10);
    size_t runs_noisy = runsUntilStop(rule, noisy, gen);
    NormalSampler quiet(10.0, 0.3);
    size_t runs_quiet = runsUntilStop(rule, quiet, gen);
    EXPECT_GT(runs_noisy, runs_quiet);
}

TEST(MeanCiRule, TighterThresholdNeedsMoreRuns)
{
    // Table IV: T2 = 0.01 continues "longer than necessary" vs T1.
    Xoshiro256 gen(4);
    NormalSampler sampler(10.0, 1.0);
    MeanCiRule loose(0.05, 0.95, 10);
    MeanCiRule tight(0.01, 0.95, 10);
    size_t runs_loose = runsUntilStop(loose, sampler, gen);
    size_t runs_tight = runsUntilStop(tight, sampler, gen);
    EXPECT_GT(runs_tight, 2 * runs_loose);
}

TEST(MeanCiRule, RespectsMinimumRuns)
{
    MeanCiRule rule(0.5, 0.95, 30);
    SampleSeries series;
    for (int i = 0; i < 29; ++i)
        series.append(10.0 + (i % 2) * 0.001);
    EXPECT_FALSE(rule.evaluate(series).stop);
}

TEST(MeanCiRule, RejectsBadParameters)
{
    EXPECT_THROW(MeanCiRule(0.0), std::invalid_argument);
    EXPECT_THROW(MeanCiRule(0.05, 1.5), std::invalid_argument);
}

TEST(KsHalvesRule, FiresWhenHalvesMatch)
{
    KsHalvesRule rule(0.1, 20);
    Xoshiro256 gen(5);
    NormalSampler sampler(10.0, 1.0);
    size_t runs = runsUntilStop(rule, sampler, gen);
    EXPECT_LT(runs, 600u);
    EXPECT_GE(runs, 20u);
}

TEST(KsHalvesRule, KeepsGoingWhileShapeDrifts)
{
    // A strongly trending series never self-matches: halves differ.
    KsHalvesRule rule(0.1, 20);
    SampleSeries series;
    for (int i = 0; i < 500; ++i) {
        series.append(static_cast<double>(i));
        if (series.size() >= rule.minSamples())
            EXPECT_FALSE(rule.evaluate(series).stop) << i;
    }
}

TEST(KsHalvesRule, CriterionIsTheKsValue)
{
    KsHalvesRule rule(0.5, 4);
    SampleSeries series({1.0, 2.0, 1.0, 2.0});
    StopDecision d = rule.evaluate(series);
    EXPECT_GE(d.criterion, 0.0);
    EXPECT_LE(d.criterion, 1.0);
    EXPECT_DOUBLE_EQ(d.threshold, 0.5);
}

TEST(KsHalvesRule, RejectsBadThreshold)
{
    EXPECT_THROW(KsHalvesRule(0.0), std::invalid_argument);
    EXPECT_THROW(KsHalvesRule(1.5), std::invalid_argument);
}

TEST(ConstantRule, StopsImmediatelyOnConstantData)
{
    ConstantRule rule(1e-9, 5);
    Xoshiro256 gen(6);
    ConstantSampler sampler(10.0);
    EXPECT_EQ(runsUntilStop(rule, sampler, gen), 5u);
}

TEST(ConstantRule, NeverFiresOnNoisyData)
{
    ConstantRule rule(1e-9, 5);
    Xoshiro256 gen(7);
    NormalSampler sampler(10.0, 0.5);
    EXPECT_EQ(runsUntilStop(rule, sampler, gen, 200), 200u);
}

TEST(NormalCiRule, StopsOnNormalData)
{
    NormalMeanCiRule rule(0.02, 0.95, 10);
    Xoshiro256 gen(8);
    NormalSampler sampler(10.0, 0.5);
    size_t runs = runsUntilStop(rule, sampler, gen);
    EXPECT_LT(runs, 200u);
}

TEST(GeoMeanCiRule, StopsOnLogNormalData)
{
    GeoMeanCiRule rule(0.05, 0.95, 10);
    Xoshiro256 gen(9);
    LogNormalSampler sampler(2.0, 0.5);
    size_t runs = runsUntilStop(rule, sampler, gen);
    EXPECT_LT(runs, 2500u);
    EXPECT_GT(runs, 10u);
}

TEST(GeoMeanCiRule, FallsBackGracefullyOnNegativeData)
{
    GeoMeanCiRule rule(0.5, 0.95, 10);
    SampleSeries series;
    for (int i = 0; i < 50; ++i)
        series.append(-10.0 + 0.001 * (i % 3));
    // Must not throw despite non-positive data.
    EXPECT_NO_THROW(rule.evaluate(series));
}

TEST(MedianCiRule, HandlesHeavyTailsWhereMeanCiStruggles)
{
    Xoshiro256 gen(10);
    CauchySampler sampler(10.0, 0.5);
    MedianCiRule median_rule(0.05, 0.95, 20);
    size_t runs = runsUntilStop(median_rule, sampler, gen, 10000);
    // The median CI converges fine for Cauchy.
    EXPECT_LT(runs, 3000u);
}

/** Where a campaign stopped, and its median CI there, as bits. */
struct CampaignStop
{
    size_t rounds;
    std::string reason;
    uint64_t lower, upper, criterion;
};

CampaignStop
runToStop(const sharp::launcher::ReproSpec &spec)
{
    sharp::launcher::LaunchReport report =
        sharp::launcher::runCampaign(spec).report;
    EXPECT_TRUE(report.ruleFired);
    sharp::stats::ConfidenceInterval ci =
        sharp::stats::medianCi(report.series.values(), 0.95);
    return {report.series.size(), report.finalDecision.reason,
            std::bit_cast<uint64_t>(ci.lower),
            std::bit_cast<uint64_t>(ci.upper),
            std::bit_cast<uint64_t>(report.finalDecision.criterion)};
}

TEST(MedianCiRule, LongCampaignStopsWhereTheParentStopped)
{
    // Two campaigns that stop by threshold well past the engine's
    // 256-sample cutover, so every round from there on reads the warm
    // coverage walk. The stop round, the reason and the final
    // interval's bits were captured from the build whose walk called
    // logGamma three times per PMF term; the log-factorial table must
    // not move any of them.
    sharp::launcher::ReproSpec sim;
    sim.workload = "srad";
    sim.machines = {"machine1"};
    sim.seed = 3;
    sim.experiment.ruleName = "median-ci";
    sim.experiment.ruleParams = {{"threshold", 0.005}};
    sim.experiment.options.maxSamples = 5000;
    CampaignStop median = runToStop(sim);
    EXPECT_EQ(median.rounds, 1288u);
    EXPECT_EQ(median.reason, "median CI relative width 0.00498 < 0.005");
    EXPECT_EQ(median.lower, std::bit_cast<uint64_t>(0x1.1478987089831p+3));
    EXPECT_EQ(median.upper, std::bit_cast<uint64_t>(0x1.15da059d6b5cap+3));
    EXPECT_EQ(median.criterion,
              std::bit_cast<uint64_t>(0x1.46713681a654ep-8));

    // A lognormal with sigma 1.5 and Cauchy bursts: meta classifies it
    // heavy-tailed, and its median-ci delegate needs ~600 samples.
    std::string path = ::testing::TempDir() + "sharp_heavy_tail_wide.json";
    {
        std::ofstream out(path);
        out << R"({"schema": "sharp-scenario-v1",
 "name": "heavy_tail_wide", "family": "heavy-tail-burst", "seed": "13",
 "params": {"base": 10.0, "sigma": 1.5, "burst_every": 70,
            "burst_len": 12, "tail_scale": 6.0}})";
    }
    sharp::launcher::ReproSpec scenario;
    scenario.backendKind = "scenario";
    scenario.scenario = path;
    scenario.experiment.ruleName = "meta";
    scenario.experiment.options.maxSamples = 5000;
    CampaignStop meta = runToStop(scenario);
    std::remove(path.c_str());
    EXPECT_EQ(meta.rounds, 583u);
    EXPECT_EQ(meta.reason, "[heavytail -> median-ci] median CI relative "
                           "width 0.03264 < 0.033");
    EXPECT_EQ(meta.lower, std::bit_cast<uint64_t>(0x1.39c652474771ap+3));
    EXPECT_EQ(meta.upper, std::bit_cast<uint64_t>(0x1.442fc6bd51711p+3));
    EXPECT_EQ(meta.criterion,
              std::bit_cast<uint64_t>(0x1.0b65b3804fdfcp-5));
}

TEST(UniformRangeRule, StopsWhenRangeSaturates)
{
    UniformRangeRule rule(0.01, 0.25, 20);
    Xoshiro256 gen(11);
    UniformSampler sampler(5.0, 15.0);
    size_t runs = runsUntilStop(rule, sampler, gen);
    EXPECT_LT(runs, 400u);
    EXPECT_GE(runs, 20u);
}

TEST(UniformRangeRule, KeepsGoingWhileRangeGrows)
{
    UniformRangeRule rule(0.001, 0.25, 10);
    SampleSeries series;
    // Strictly widening range: alternating ±i.
    for (int i = 1; i <= 100; ++i) {
        series.append(i % 2 == 0 ? static_cast<double>(i)
                                 : -static_cast<double>(i));
        if (series.size() >= rule.minSamples())
            EXPECT_FALSE(rule.evaluate(series).stop) << i;
    }
}

TEST(AutocorrEssRule, DemandsMoreRunsOnCorrelatedData)
{
    Xoshiro256 gen(12);
    AutocorrEssRule rule(0.05, 0.95, 25.0, 30);

    Ar1Sampler correlated(10.0, 0.9, 0.3);
    size_t runs_corr = runsUntilStop(rule, correlated, gen, 5000);

    NormalSampler iid(10.0, 0.3);
    size_t runs_iid = runsUntilStop(rule, iid, gen, 5000);

    EXPECT_GT(runs_corr, 2 * runs_iid);
}

TEST(ModalityRule, WaitsForAllModesToAppear)
{
    // A mixture with a rare (8%) slow mode: the rule must not stop
    // before the rare mode shows up in both halves.
    Xoshiro256 gen(13);
    std::vector<MixtureSampler::Component> comps;
    comps.push_back({0.92, std::make_shared<NormalSampler>(10.0, 0.2)});
    comps.push_back({0.08, std::make_shared<NormalSampler>(14.0, 0.2)});
    MixtureSampler sampler(std::move(comps));

    ModalityRule rule(0.1, 0.15, 40);
    size_t runs = runsUntilStop(rule, sampler, gen);
    // By the time it stops, both halves must contain slow-mode samples.
    EXPECT_GE(runs, 40u);
    EXPECT_LT(runs, 3000u);
}

/**
 * ModalityRule as it evaluated before KS gated its KDEs: both mode
 * counts and KS(halves) at every evaluation, stopping when the counts
 * agree and KS is below the threshold.
 */
StopDecision
twoKdeModalitySpec(const SampleSeries &series, double ksThreshold,
                   double prominence, size_t minRuns)
{
    if (series.size() < minRuns)
        return StopDecision::keepGoing(1.0, ksThreshold, "warming up");
    size_t modes_half =
        sharp::stats::findModes(series.firstHalf(), prominence).size();
    size_t modes_full =
        sharp::stats::findModes(series.values(), prominence).size();
    double ks = series.stats().ksHalves();
    bool stop = modes_half == modes_full && ks < ksThreshold;
    return {stop, ks, ksThreshold, ""};
}

TEST(ModalityRule, KsGateDecidesLikeTheTwoKdeSpec)
{
    // The registry's defaults: KS threshold 0.1, prominence 0.15,
    // at least 40 samples.
    const double ks_threshold = 0.1, prominence = 0.15;
    const size_t min_runs = 40;
    size_t stops = 0, mode_vetoes = 0;
    for (const char *stream :
         {"bimodal", "multimodal", "normal", "regime-switch"}) {
        std::string name = stream;
        std::shared_ptr<Sampler> sampler =
            name == "regime-switch" ? nonstationaryByName(name).make()
                                    : syntheticByName(name).make();
        Xoshiro256 gen(29);
        ModalityRule rule(ks_threshold, prominence, min_runs);
        SampleSeries series;
        for (size_t n = 1; n <= 800; ++n) {
            series.append(sampler->sample(gen));
            StopDecision got = rule.evaluate(series);
            StopDecision want = twoKdeModalitySpec(series, ks_threshold,
                                                   prominence, min_runs);
            ASSERT_EQ(got.stop, want.stop) << name << " n=" << n;
            ASSERT_EQ(std::bit_cast<uint64_t>(got.criterion),
                      std::bit_cast<uint64_t>(want.criterion))
                << name << " n=" << n;
            stops += got.stop ? 1 : 0;
            if (!want.stop && want.criterion < ks_threshold)
                ++mode_vetoes;
        }
    }
    // Both ways a KS pass can end are exercised: a stop, and a veto
    // by unequal mode counts.
    EXPECT_GT(stops, 0u);
    EXPECT_GT(mode_vetoes, 0u);
}

TEST(TailQuantileRule, StopsWhenTailIsPinnedDown)
{
    TailQuantileRule rule(0.95, 0.1, 0.95, 50);
    Xoshiro256 gen(14);
    NormalSampler sampler(10.0, 1.0);
    size_t runs = runsUntilStop(rule, sampler, gen);
    EXPECT_GE(runs, 50u);
    EXPECT_LT(runs, 2000u);
}

TEST(TailQuantileRule, NeedsMoreRunsThanMedianPrecision)
{
    Xoshiro256 gen(15);
    LogNormalSampler sampler(1.0, 0.8);
    MedianCiRule med(0.1, 0.95, 20);
    TailQuantileRule tail(0.99, 0.1, 0.95, 50);
    size_t runs_med = runsUntilStop(med, sampler, gen, 20000);
    size_t runs_tail = runsUntilStop(tail, sampler, gen, 20000);
    EXPECT_GT(runs_tail, runs_med);
}

TEST(TailQuantileRule, ReasonNamesTheQuantileItTracks)
{
    Xoshiro256 gen(16);
    LogNormalSampler sampler(1.0, 0.5);
    SampleSeries series;
    for (int i = 0; i < 200; ++i)
        series.append(sampler.sample(gen));
    // Tail quantiles past p99 must not all read "p100".
    const std::pair<double, const char *> cases[] = {
        {0.95, "p95 "}, {0.5, "p50 "},    {0.99, "p99 "},
        {0.995, "p99.5 "}, {0.999, "p99.9 "}};
    for (auto [quantile, label] : cases) {
        TailQuantileRule rule(quantile, 0.1, 0.95, 50);
        std::string reason = rule.evaluate(series).reason;
        EXPECT_EQ(reason.rfind(std::string(label) + "CI relative width", 0),
                  0u)
            << reason;
    }
}

TEST(Factory, BuildsEveryRegisteredRule)
{
    auto &factory = StoppingRuleFactory::instance();
    for (const auto &name : factory.names()) {
        auto rule = factory.make(name);
        ASSERT_TRUE(rule) << name;
        EXPECT_EQ(rule->name(), name);
        EXPECT_FALSE(rule->describe().empty());
    }
}

TEST(Factory, AppliesParameters)
{
    auto &factory = StoppingRuleFactory::instance();
    auto rule = factory.make("fixed", {{"count", 7.0}});
    auto *fixed = dynamic_cast<FixedCountRule *>(rule.get());
    ASSERT_NE(fixed, nullptr);
    EXPECT_EQ(fixed->count(), 7u);

    auto ks = factory.make("ks", {{"threshold", 0.25}});
    auto *ks_rule = dynamic_cast<KsHalvesRule *>(ks.get());
    ASSERT_NE(ks_rule, nullptr);
    EXPECT_DOUBLE_EQ(ks_rule->ksThreshold(), 0.25);
}

TEST(Factory, RejectsUnknownRule)
{
    EXPECT_THROW(StoppingRuleFactory::instance().make("nope"),
                 std::out_of_range);
}

TEST(Factory, RejectsInvalidParameterValues)
{
    auto &factory = StoppingRuleFactory::instance();
    EXPECT_THROW(factory.make("ks", {{"threshold", -1.0}}),
                 std::invalid_argument);
    EXPECT_THROW(factory.make("fixed", {{"count", -5.0}}),
                 std::invalid_argument);
}

TEST(Factory, RejectsFractionalCounts)
{
    // Counts are integers, worded like check::checkIntegerField: 2.5
    // is an error, not a count of 3.
    auto &factory = StoppingRuleFactory::instance();
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"fixed", "count"}, {"ks", "min"},       {"median-ci", "min"},
        {"meta", "min"},    {"meta", "interval"},
    };
    for (const auto &[rule, key] : cases) {
        for (double bad : {2.5, 1e-9, 30.000001}) {
            try {
                factory.make(rule, {{key, bad}});
                ADD_FAILURE() << rule << " accepted " << key << " = " << bad;
            } catch (const std::invalid_argument &problem) {
                EXPECT_EQ(std::string(problem.what()),
                          "parameter '" + key +
                              "' must be an integer in [0, 2^53]");
            }
        }
        EXPECT_NO_THROW(factory.make(rule, {{key, 30.0}})) << rule;
    }
}

TEST(TailoredSuite, HasEightRules)
{
    // §IV-c: "eight dynamic stopping rules tailored for specific types
    // of distributions". The factory builds each under its own name.
    const std::vector<std::string> tailored = {
        "constant",      "normal-ci",    "geomean-ci", "median-ci",
        "uniform-range", "autocorr-ess", "modality",   "tail-quantile"};
    std::vector<std::string> names;
    for (const auto &name : tailored)
        names.push_back(StoppingRuleFactory::instance().make(name)->name());
    EXPECT_EQ(names, tailored);
    // All distinct.
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(StopDecision, FactoriesSetFields)
{
    StopDecision keep = StopDecision::keepGoing(0.3, 0.1, "why");
    EXPECT_FALSE(keep.stop);
    EXPECT_DOUBLE_EQ(keep.criterion, 0.3);
    StopDecision stop = StopDecision::stopNow(0.05, 0.1, "done");
    EXPECT_TRUE(stop.stop);
    EXPECT_EQ(stop.reason, "done");
}

} // anonymous namespace
