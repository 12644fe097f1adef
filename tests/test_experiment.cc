/**
 * @file
 * The sampling-loop contract, driven through launcher::Launcher, the
 * one loop every campaign runs: a measurement source bound to a
 * stopping rule, with discarded warmups and a sample cap.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "core/stopping/fixed_rule.hh"
#include "core/stopping/ks_rule.hh"
#include "launcher/launcher.hh"
#include "rng/sampler.hh"

namespace
{

using namespace sharp::core;
using namespace sharp::launcher;
using namespace sharp::rng;

/** A backend measuring one value from @p source per invocation. */
class SourceBackend : public Backend
{
  public:
    explicit SourceBackend(std::function<double()> source_in)
        : source(std::move(source_in))
    {
    }

    std::string name() const override { return "source"; }
    std::string workloadName() const override { return "source"; }

    RunResult run() override
    {
        ++calls;
        RunResult result;
        result.metrics["execution_time"] = source();
        return result;
    }

    /** Invocations so far, warmups included. */
    size_t calls = 0;

  private:
    std::function<double()> source;
};

/** A backend measuring 1, 2, 3, ... */
std::shared_ptr<SourceBackend>
countingBackend()
{
    auto count = std::make_shared<int>(0);
    return std::make_shared<SourceBackend>(
        [count] { return static_cast<double>(++*count); });
}

TEST(Experiment, FixedRuleCollectsExactCount)
{
    auto backend = countingBackend();
    Launcher launcher(backend, std::make_unique<FixedCountRule>(25));
    LaunchReport report = launcher.launch();
    EXPECT_TRUE(report.ruleFired);
    EXPECT_EQ(report.series.size(), 25u);
    EXPECT_EQ(backend->calls, 25u);
}

TEST(Experiment, WarmupRunsAreDiscarded)
{
    auto backend = countingBackend();
    LaunchOptions opts;
    opts.warmupRounds = 5;
    Launcher launcher(backend, std::make_unique<FixedCountRule>(10),
                      opts);
    LaunchReport report = launcher.launch();
    EXPECT_EQ(report.series.size(), 10u);
    EXPECT_EQ(backend->calls, 15u);
    size_t warmups = 0;
    for (const auto &rec : report.log.records())
        warmups += rec.warmup ? 1 : 0;
    EXPECT_EQ(warmups, 5u);
    // The first retained sample comes after the warmups.
    EXPECT_DOUBLE_EQ(report.series[0], 6.0);
}

TEST(Experiment, MaxSamplesCapStopsRunawayRules)
{
    // A KS rule on a strongly trending stream never fires; the cap must.
    LaunchOptions opts;
    opts.maxSamples = 100;
    Launcher launcher(countingBackend(),
                      std::make_unique<KsHalvesRule>(0.01, 20), opts);
    LaunchReport report = launcher.launch();
    EXPECT_FALSE(report.ruleFired);
    EXPECT_EQ(report.series.size(), 100u);
    EXPECT_NE(report.finalDecision.reason.find("maxSamples"),
              std::string::npos);
}

TEST(Experiment, KsRuleStopsOnStationaryStream)
{
    auto gen = std::make_shared<Xoshiro256>(1);
    auto sampler = std::make_shared<NormalSampler>(10.0, 1.0);
    LaunchOptions opts;
    opts.maxSamples = 5000;
    Launcher launcher(std::make_shared<SourceBackend>(
                          [gen, sampler] { return sampler->sample(*gen); }),
                      std::make_unique<KsHalvesRule>(0.1, 20), opts);
    LaunchReport report = launcher.launch();
    EXPECT_TRUE(report.ruleFired);
    EXPECT_LT(report.series.size(), 1000u);
    EXPECT_TRUE(report.finalDecision.stop);
    EXPECT_LT(report.finalDecision.criterion,
              report.finalDecision.threshold);
}

TEST(Experiment, RunIsRepeatable)
{
    // Two launches over fresh deterministic sources collect the same
    // samples: the rule starts from nothing each time.
    auto make_backend = [] {
        auto gen = std::make_shared<Xoshiro256>(7);
        return std::make_shared<SourceBackend>([gen] {
            return 10.0 + 0.01 * static_cast<double>(gen->nextDouble());
        });
    };
    Launcher first(make_backend(), std::make_unique<KsHalvesRule>());
    Launcher second(make_backend(), std::make_unique<KsHalvesRule>());
    EXPECT_EQ(first.launch().series.values(),
              second.launch().series.values());
}

TEST(Experiment, RejectsInvalidConstruction)
{
    EXPECT_THROW(Launcher(nullptr, std::make_unique<FixedCountRule>()),
                 std::invalid_argument);
    EXPECT_THROW(Launcher(countingBackend(), nullptr),
                 std::invalid_argument);
    LaunchOptions bad;
    bad.minSamples = 100;
    bad.maxSamples = 10;
    EXPECT_THROW(Launcher(countingBackend(),
                          std::make_unique<FixedCountRule>(), bad),
                 std::invalid_argument);
}

} // anonymous namespace
