/**
 * @file
 * Certified keep-going: the StatsCache lower bounds and the rules that
 * act on them (DESIGN.md §8).
 *
 * Three claims are pinned here:
 *  - every bound is at or below the exact value it bounds, at every
 *    append past the cutover, on streams chosen to break a careless
 *    bound (a mean of 1e8 with sd 1e-3, integer ties, constants, a mean
 *    crossing zero, NaN and infinities);
 *  - on the same streams, `ks`, `ci` and `normal-ci` make the same stop
 *    decision at every round as the same rule on a twin series whose
 *    bounds are dropped, so that every evaluation there is exact;
 *  - seeded campaigns stop at the round, with the reason and criterion
 *    bits, that the build before certificates recorded, both through
 *    runCampaign and through Launcher directly.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/sample_series.hh"
#include "core/stats_cache.hh"
#include "core/stopping/stopping_rule.hh"
#include "launcher/launcher.hh"
#include "launcher/reproduce.hh"
#include "rng/sampler.hh"
#include "rng/xoshiro.hh"
#include "stats/ci.hh"
#include "stats/ecdf.hh"

namespace
{

using sharp::core::SampleSeries;
namespace stats = sharp::stats;

constexpr size_t kCutover = sharp::core::kStatsCacheCutover;
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Stream
{
    const char *name;
    std::vector<double> values;
    /** Index of the first non-finite sample (size() when none). */
    size_t firstNonFinite;
};

/** The adversarial streams, each 1200 samples. */
std::vector<Stream>
streams()
{
    const size_t n = 1200;
    std::vector<Stream> out;
    auto add = [&](const char *name, auto draw) {
        sharp::rng::Xoshiro256 gen(101 + out.size());
        Stream s{name, {}, n};
        for (size_t i = 0; i < n; ++i) {
            s.values.push_back(draw(gen, i));
            if (!std::isfinite(s.values.back()) && s.firstNonFinite == n)
                s.firstNonFinite = i;
        }
        out.push_back(std::move(s));
    };
    sharp::rng::LogNormalSampler lognormal(1.0, 0.7);
    sharp::rng::NormalSampler unit(0.0, 1.0);
    add("lognormal", [&](auto &gen, size_t) { return lognormal.sample(gen); });
    add("mean 1e8, sd 1e-3",
        [&](auto &gen, size_t) { return 1e8 + 1e-3 * unit.sample(gen); });
    add("integer ties", [&](auto &gen, size_t) {
        return std::floor(50.0 + 3.0 * unit.sample(gen));
    });
    add("constant", [](auto &, size_t) { return 7.25; });
    add("mean crossing zero", [&](auto &gen, size_t i) {
        return -3.0 + 6.0 * static_cast<double>(i) / 1200.0 +
               unit.sample(gen);
    });
    add("NaN injected", [&](auto &gen, size_t i) {
        double v = lognormal.sample(gen);
        return i == 700 ? std::nan("") : v;
    });
    add("infinities injected", [&](auto &gen, size_t i) {
        double v = lognormal.sample(gen);
        return i == 600 ? kInf : i == 900 ? -kInf : v;
    });
    return out;
}

TEST(CertifiedBounds, NeverExceedTheExactValue)
{
    for (const Stream &stream : streams()) {
        SCOPED_TRACE(stream.name);
        SampleSeries s;
        size_t ks_bounds = 0, ci_bounds = 0;
        for (size_t i = 0; i < stream.values.size(); ++i) {
            s.append(stream.values[i]);
            if (s.size() <= kCutover)
                continue;
            bool finite = i < stream.firstNonFinite;
            // Walk exactly now and then, so the KS bound is read at
            // every distance from its last walk up to ~100 appends.
            if (i % 97 == 0)
                s.stats().ksHalves();
            double ks_bound = s.stats().ksHalvesLowerBound();
            if (!finite) {
                EXPECT_EQ(ks_bound, -kInf) << "n=" << s.size();
            } else if (ks_bound > -kInf) {
                ++ks_bounds;
                EXPECT_LE(ks_bound,
                          stats::ksStatistic(s.firstHalf(), s.secondHalf()))
                    << "n=" << s.size();
            }

            auto two = s.stats().meanCiLowerBound(0.95);
            auto right = s.stats().meanCiRightTailedLowerBound(0.95);
            if (!finite) {
                EXPECT_FALSE(two.has_value()) << "n=" << s.size();
                EXPECT_FALSE(right.has_value()) << "n=" << s.size();
                continue;
            }
            stats::ConfidenceInterval exact_two =
                stats::meanCi(s.values(), 0.95);
            stats::ConfidenceInterval exact_right =
                stats::meanCiRightTailed(s.values(), 0.95);
            if (two) {
                ++ci_bounds;
                EXPECT_GE(two->lower, exact_two.lower) << "n=" << s.size();
                EXPECT_LE(two->upper, exact_two.upper) << "n=" << s.size();
                EXPECT_LE(two->width(), exact_two.width())
                    << "n=" << s.size();
                EXPECT_LE(two->relativeWidth(s.mean()),
                          exact_two.relativeWidth(s.mean()))
                    << "n=" << s.size();
            }
            if (right) {
                EXPECT_EQ(right->lower, exact_right.lower) << "n=" << s.size();
                EXPECT_LE(right->upper, exact_right.upper)
                    << "n=" << s.size();
                EXPECT_LE(right->width(), exact_right.width())
                    << "n=" << s.size();
            }
        }
        // A bound that never holds would pass the checks above
        // vacuously: every stream with spread gets both.
        std::string name = stream.name;
        if (name != "constant") {
            EXPECT_GT(ks_bounds, 0u);
            EXPECT_GT(ci_bounds, 0u);
        } else {
            EXPECT_EQ(ci_bounds, 0u);
        }
    }
}

TEST(CertifiedBounds, DropBoundsLeavesNone)
{
    const std::vector<double> values = streams().front().values;
    SampleSeries s;
    for (double v : values)
        s.append(v);
    s.stats().ksHalves();
    s.append(3.0);
    ASSERT_GT(s.stats().ksHalvesLowerBound(), -kInf);
    ASSERT_TRUE(s.stats().meanCiLowerBound(0.95).has_value());
    s.stats().dropBounds();
    EXPECT_EQ(s.stats().ksHalvesLowerBound(), -kInf);
    EXPECT_FALSE(s.stats().meanCiLowerBound(0.95).has_value());
    EXPECT_FALSE(s.stats().meanCiRightTailedLowerBound(0.95).has_value());
    // A right-tailed level at or below 1/2 has t <= 0, where a smaller
    // variance widens the interval: never a bound there.
    SampleSeries fresh;
    for (double v : values)
        fresh.append(v);
    EXPECT_FALSE(fresh.stats().meanCiRightTailedLowerBound(0.4).has_value());
    EXPECT_TRUE(fresh.stats().meanCiRightTailedLowerBound(0.95).has_value());
}

TEST(CertifiedBounds, RulesDecideLikeAFreshExactRule)
{
    auto &factory = sharp::core::StoppingRuleFactory::instance();
    for (const Stream &stream : streams()) {
        for (const char *rule_name : {"ks", "ci", "normal-ci"}) {
            for (double threshold : {1e-9, 0.05, 0.02, 0.005}) {
                SCOPED_TRACE(std::string(stream.name) + ", " + rule_name +
                             " at " + std::to_string(threshold));
                auto certified =
                    factory.make(rule_name, {{"threshold", threshold}});
                auto exact =
                    factory.make(rule_name, {{"threshold", threshold}});
                SampleSeries s, twin;
                twin.stats().dropBounds();
                size_t certified_rounds = 0, far_rounds = 0;
                for (double v : stream.values) {
                    s.append(v);
                    twin.append(v);
                    if (s.size() < certified->minSamples())
                        continue;
                    sharp::core::StopDecision c = certified->evaluate(s);
                    sharp::core::StopDecision e = exact->evaluate(twin);
                    ASSERT_EQ(c.stop, e.stop) << "n=" << s.size();
                    if (c.reason.find("certified") != std::string::npos) {
                        ++certified_rounds;
                        EXPECT_LE(c.criterion, e.criterion)
                            << "n=" << s.size();
                    }
                    if (s.size() > kCutover && e.criterion > 2 * threshold)
                        ++far_rounds;
                }
                // Past the cutover, the certificates carry most rounds
                // whose criterion sits far above the threshold.
                if (stream.firstNonFinite == stream.values.size()) {
                    EXPECT_GE(certified_rounds, far_rounds / 2);
                }
            }
        }
    }
}

/** Where a campaign stopped, as the metadata records it. */
struct Stop
{
    size_t rounds;
    bool fired;
    std::string reason;
    uint64_t criterion;

    bool operator==(const Stop &) const = default;
};

void
PrintTo(const Stop &s, std::ostream *os)
{
    *os << s.rounds << (s.fired ? " fired " : " capped ") << s.reason
        << " criterion bits " << std::hex << s.criterion;
}

Stop
stopOf(const sharp::launcher::LaunchReport &report)
{
    return {report.series.size(), report.ruleFired,
            report.finalDecision.reason,
            std::bit_cast<uint64_t>(report.finalDecision.criterion)};
}

TEST(CertifiedRules, CampaignsStopWhereTheParentStopped)
{
    // Capped (threshold 1e-9) and threshold-stopped sim campaigns of
    // each bounded rule, past the 256-sample cutover, and a meta
    // campaign whose normal-ci delegate runs past it. Every stop round,
    // reason and criterion was captured from the build before the
    // certificates existed: a capped campaign's last decision must come
    // from an exact evaluation, and a stop must land on the same round.
    std::string scenario = ::testing::TempDir() + "sharp_noisy_flat.json";
    {
        std::ofstream out(scenario);
        out << R"({"schema": "sharp-scenario-v1", "name": "noisy_flat",
 "family": "diurnal-drift", "seed": "15",
 "params": {"base": 10.0, "amplitude": 0.0, "period": 300.0,
            "noise": 2.0, "drift": 0.0}})";
    }
    struct Pin
    {
        const char *workload;
        const char *rule;
        double threshold;
        size_t cap;
        Stop stop;
    };
    const Pin pins[] = {
        {"srad", "ks", 1e-9, 3000,
         {3000, false,
          "KS(halves) = 0.0247 >= 0 [stopped at maxSamples cap]",
          std::bit_cast<uint64_t>(0x1.94237fa89e62p-6)}},
        {"srad", "ks", 0.03, 20000,
         {870, true, "KS(halves) = 0.0299 < 0.03",
          std::bit_cast<uint64_t>(0x1.e9a3041e9a3p-6)}},
        {"kmeans", "ks", 0.02, 20000,
         {4774, true, "KS(halves) = 0.0197 < 0.02",
          std::bit_cast<uint64_t>(0x1.4299cb050a67p-6)}},
        {"srad", "ci", 1e-9, 3000,
         {3000, false,
          "right-tailed mean CI relative width 0.00269 >= 0 [stopped at "
          "maxSamples cap]",
          std::bit_cast<uint64_t>(0x1.6038c58b751e8p-9)}},
        {"hotspot", "ci", 0.005, 20000,
         {1224, true, "right-tailed mean CI relative width 0.005 < 0.005",
          std::bit_cast<uint64_t>(0x1.47a410a7fbf06p-8)}},
        {"srad", "normal-ci", 1e-9, 3000,
         {3000, false,
          "two-sided mean CI relative width 0.0064 >= 0 [stopped at "
          "maxSamples cap]",
          std::bit_cast<uint64_t>(0x1.a3b2b7e65f4dp-8)}},
        {"kmeans", "normal-ci", 0.002, 20000,
         {4694, true, "two-sided mean CI relative width 0.002 < 0.002",
          std::bit_cast<uint64_t>(0x1.06199377b8458p-9)}},
        {nullptr, "meta", 0.0, 5000,
         {1533, true,
          "[normal -> normal-ci] two-sided mean CI relative width 0.02 < "
          "0.02",
          std::bit_cast<uint64_t>(0x1.47a18718aa0a7p-6)}},
        {nullptr, "meta", 0.0, 1000,
         {1000, false,
          "[normal -> normal-ci] two-sided mean CI relative width 0.02477 "
          ">= 0.02 [stopped at maxSamples cap]",
          std::bit_cast<uint64_t>(0x1.95e488b92e845p-6)}},
    };
    for (const Pin &pin : pins) {
        sharp::launcher::ReproSpec spec;
        if (pin.workload) {
            spec.workload = pin.workload;
            spec.machines = {"machine1"};
            spec.seed = 7;
            spec.experiment.ruleParams = {{"threshold", pin.threshold}};
        } else {
            spec.backendKind = "scenario";
            spec.scenario = scenario;
        }
        spec.experiment.ruleName = pin.rule;
        spec.experiment.options.maxSamples = pin.cap;
        SCOPED_TRACE(std::string(pin.workload ? pin.workload : "scenario") +
                     ", " + pin.rule + ", cap " + std::to_string(pin.cap));

        EXPECT_EQ(stopOf(sharp::launcher::runCampaign(spec).report),
                  pin.stop);
        sharp::launcher::Launcher direct(sharp::launcher::makeBackend(spec),
                                         spec.experiment.makeRule(),
                                         spec.launchOptions());
        EXPECT_EQ(stopOf(direct.launch()), pin.stop);
    }
    std::remove(scenario.c_str());
}

} // anonymous namespace
