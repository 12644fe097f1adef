/**
 * @file
 * Parameterized property tests: invariants that must hold across the
 * whole cross-product of distributions, rules, benchmarks, and
 * machines — the sweeps TEST_P exists for.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "core/sample_series.hh"
#include "core/stats_cache.hh"
#include "core/stopping/stopping_rule.hh"
#include "median_ci_spec.hh"
#include "quantile_ci_spec.hh"
#include "rng/synthetic.hh"
#include "sim/machine.hh"
#include "sim/rodinia.hh"
#include "sim/workload.hh"
#include "speedup_spec.hh"
#include "stats/ci.hh"
#include "stats/descriptive.hh"
#include "stats/ecdf.hh"
#include "stats/histogram.hh"
#include "stats/similarity.hh"

namespace
{

using namespace sharp;

// ---------------------------------------------------------------
// Similarity-metric properties over every synthetic distribution.
// ---------------------------------------------------------------

class SimilarityProperties
    : public ::testing::TestWithParam<const char *>
{
  protected:
    std::vector<double>
    draw(uint64_t seed, size_t n = 400)
    {
        rng::Xoshiro256 gen(seed);
        return rng::syntheticByName(GetParam())
            .make()
            ->sampleMany(gen, n);
    }
};

TEST_P(SimilarityProperties, KsIsAPseudometric)
{
    auto a = draw(1);
    auto b = draw(2);
    auto c = draw(3);
    double ab = stats::ksStatistic(a, b);
    double bc = stats::ksStatistic(b, c);
    double ac = stats::ksStatistic(a, c);
    // Identity, symmetry, bounds, triangle inequality.
    EXPECT_DOUBLE_EQ(stats::ksStatistic(a, a), 0.0);
    EXPECT_DOUBLE_EQ(ab, stats::ksStatistic(b, a));
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
    EXPECT_LE(ac, ab + bc + 1e-12);
}

TEST_P(SimilarityProperties, KsShrinksWithSampleSize)
{
    // Same-distribution KS decays toward 0 as n grows.
    rng::Xoshiro256 gen(7);
    auto sampler_a = rng::syntheticByName(GetParam()).make();
    auto sampler_b = rng::syntheticByName(GetParam()).make();
    double small_ks = stats::ksStatistic(sampler_a->sampleMany(gen, 50),
                                        sampler_b->sampleMany(gen, 50));
    auto sampler_c = rng::syntheticByName(GetParam()).make();
    auto sampler_d = rng::syntheticByName(GetParam()).make();
    double large_ks =
        stats::ksStatistic(sampler_c->sampleMany(gen, 5000),
                          sampler_d->sampleMany(gen, 5000));
    EXPECT_LE(large_ks, small_ks + 0.05) << GetParam();
}

TEST_P(SimilarityProperties, WassersteinScalesWithShift)
{
    auto a = draw(11);
    std::vector<double> shifted = a;
    for (double &v : shifted)
        v += 2.5;
    EXPECT_NEAR(stats::wasserstein1(a, shifted), 2.5, 1e-9)
        << GetParam();
}

TEST_P(SimilarityProperties, SummaryOrderingInvariants)
{
    auto xs = draw(13, 800);
    auto s = stats::Summary::compute(xs);
    EXPECT_LE(s.min, s.q1);
    EXPECT_LE(s.q1, s.median);
    EXPECT_LE(s.median, s.q3);
    EXPECT_LE(s.q3, s.p95);
    EXPECT_LE(s.p95, s.p99);
    EXPECT_LE(s.p99, s.max);
    EXPECT_GE(s.stddev, 0.0);
    EXPECT_GE(s.mean, s.min);
    EXPECT_LE(s.mean, s.max);
}

TEST_P(SimilarityProperties, HistogramConservesMassUnderAllRules)
{
    auto xs = draw(17, 600);
    for (auto rule :
         {stats::BinRule::Sturges, stats::BinRule::FreedmanDiaconis,
          stats::BinRule::Scott, stats::BinRule::SturgesFdMin}) {
        auto hist = stats::Histogram::build(xs, rule);
        size_t total = 0;
        for (size_t i = 0; i < hist.numBins(); ++i)
            total += hist.count(i);
        EXPECT_EQ(total, xs.size()) << GetParam();
    }
}

TEST_P(SimilarityProperties, KsMonotoneUnderMassSeparation)
{
    // Shifting a sample against itself moves probability mass one way,
    // so D(t) = sup |F(x) - F(x - t)| is non-decreasing in t, and the
    // distance saturates at 1 once the supports are disjoint.
    auto a = draw(19);
    auto [lo, hi] = std::minmax_element(a.begin(), a.end());
    double span = *hi - *lo + 1.0;
    double previous = 0.0; // KS(a, a) == 0
    for (double frac : {0.05, 0.15, 0.4, 1.0}) {
        std::vector<double> shifted = a;
        for (double &v : shifted)
            v += frac * span;
        double d = stats::ksStatistic(a, shifted);
        EXPECT_GE(d, previous - 1e-12) << GetParam() << " t=" << frac;
        EXPECT_LE(d, 1.0) << GetParam();
        previous = d;
    }
    EXPECT_DOUBLE_EQ(previous, 1.0) << GetParam(); // disjoint supports
}

// ---------------------------------------------------------------
// NAMD closed-form anchors (the paper's point-summary metric).
// ---------------------------------------------------------------

TEST(NamdClosedForm, MatchesHandComputedPairs)
{
    // Sorted-pair matching, |diff| = 1 each, means 1 and 2:
    // 0.5 * (1/1 + 1/2) * 1 = 0.75.
    EXPECT_DOUBLE_EQ(stats::namd({1, 1, 1, 1}, {2, 2, 2, 2}), 0.75);
    // Pairs (2,4), (4,8): mean |diff| 3, means 3 and 6:
    // 0.5 * (3/3 + 3/6) = 0.75.
    EXPECT_DOUBLE_EQ(stats::namd({2, 4}, {4, 8}), 0.75);
    // One-sided unit shift at mean 10 vs 11.
    EXPECT_DOUBLE_EQ(stats::namd({10}, {11}),
                     0.5 * (1.0 / 10.0 + 1.0 / 11.0));
}

TEST(NamdClosedForm, ZeroOnIdenticalAndSymmetric)
{
    std::vector<double> x = {3.0, 1.0, 4.0, 1.5, 9.0};
    std::vector<double> y = {2.5, 8.0, 1.0, 3.5, 4.0};
    EXPECT_DOUBLE_EQ(stats::namd(x, x), 0.0);
    // Permutation invariance: pairs are matched by sorted order.
    std::vector<double> x_perm = {9.0, 1.0, 1.5, 4.0, 3.0};
    EXPECT_DOUBLE_EQ(stats::namd(x_perm, y), stats::namd(x, y));
    EXPECT_DOUBLE_EQ(stats::namd(x, y), stats::namd(y, x));
}

TEST(NamdClosedForm, RejectsDegenerateInput)
{
    EXPECT_THROW(stats::namd({}, {1.0}), std::invalid_argument);
    EXPECT_THROW(stats::namd({1.0}, {}), std::invalid_argument);
    EXPECT_THROW(stats::namd({-1.0, 1.0}, {2.0, 3.0}),
                 std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    AllSynthetics, SimilarityProperties,
    ::testing::Values("normal", "lognormal", "uniform", "loguniform",
                      "logistic", "bimodal", "multimodal", "sinusoidal",
                      "cauchy"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

// ---------------------------------------------------------------
// Stopping-rule contract over the (rule x synthetic) product.
// ---------------------------------------------------------------

struct RuleCase
{
    const char *rule;
    const char *synthetic;
};

class StoppingRuleContract : public ::testing::TestWithParam<RuleCase>
{
};

TEST_P(StoppingRuleContract, NeverStopsBeforeMinSamplesAndNeverLies)
{
    auto [rule_name, synthetic] = GetParam();
    auto rule = core::StoppingRuleFactory::instance().make(rule_name);
    rng::Xoshiro256 gen(5);
    auto sampler = rng::syntheticByName(synthetic).make();

    core::SampleSeries series;
    for (size_t i = 0; i < 400; ++i) {
        series.append(sampler->sample(gen));
        core::StopDecision decision = rule->evaluate(series);
        if (series.size() < rule->minSamples()) {
            EXPECT_FALSE(decision.stop)
                << rule_name << " fired below its own minimum on "
                << synthetic;
        }
        EXPECT_FALSE(decision.reason.empty()) << rule_name;
        if (decision.stop) {
            // A stop decision must report criterion within threshold
            // semantics (criterion compared against threshold).
            EXPECT_TRUE(std::isfinite(decision.criterion)) << rule_name;
            break;
        }
    }
}

TEST_P(StoppingRuleContract, ResetMakesEvaluationRepeatable)
{
    auto [rule_name, synthetic] = GetParam();
    auto rule = core::StoppingRuleFactory::instance().make(rule_name);
    rng::Xoshiro256 gen(9);
    auto sampler = rng::syntheticByName(synthetic).make();
    core::SampleSeries series;
    for (size_t i = 0; i < 120; ++i)
        series.append(sampler->sample(gen));

    rule->reset();
    core::StopDecision first = rule->evaluate(series);
    rule->reset();
    core::StopDecision second = rule->evaluate(series);
    EXPECT_EQ(first.stop, second.stop) << rule_name;
    EXPECT_DOUBLE_EQ(first.criterion, second.criterion) << rule_name;
}

std::vector<RuleCase>
ruleCases()
{
    std::vector<RuleCase> cases;
    const char *rules[] = {"fixed", "ci", "ks", "constant", "normal-ci",
                           "geomean-ci", "median-ci", "uniform-range",
                           "autocorr-ess", "modality", "tail-quantile",
                           "meta"};
    const char *synthetics[] = {"normal", "lognormal", "bimodal",
                                "cauchy", "constant"};
    for (const char *rule : rules)
        for (const char *synthetic : synthetics)
            cases.push_back({rule, synthetic});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    RuleBySynthetic, StoppingRuleContract,
    ::testing::ValuesIn(ruleCases()),
    [](const ::testing::TestParamInfo<RuleCase> &info) {
        std::string name = std::string(info.param.rule) + "_on_" +
                           info.param.synthetic;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------
// CI coverage-direction properties across confidence levels.
// ---------------------------------------------------------------

class CiLevelProperties : public ::testing::TestWithParam<double>
{
};

TEST_P(CiLevelProperties, HigherLevelsGiveWiderIntervals)
{
    double level = GetParam();
    rng::Xoshiro256 gen(21);
    rng::NormalSampler sampler(10.0, 1.0);
    auto xs = sampler.sampleMany(gen, 200);

    auto ci = stats::meanCi(xs, level);
    auto wider = stats::meanCi(xs, std::min(0.999, level + 0.04));
    EXPECT_GE(wider.width(), ci.width());

    auto med = stats::medianCi(xs, level);
    EXPECT_LE(med.lower, stats::median(xs));
    EXPECT_GE(med.upper, stats::median(xs));
}

INSTANTIATE_TEST_SUITE_P(Levels, CiLevelProperties,
                         ::testing::Values(0.5, 0.8, 0.9, 0.95, 0.99));

TEST(QuantileCiIndices, BinarySearchMatchesPmfPrefixSumUpTo1e5)
{
    // test_ci.cc checks every n up to 2000; past it, a stride up to
    // 1e5, where one prefix sum is up to 10^5 PMF terms.
    std::vector<size_t> sizes;
    for (size_t n = 2001; n < 100000; n += 97)
        sizes.push_back(n);
    sizes.push_back(100000);
    test::QuantileCiSweep sweep = test::sweepQuantileCiIndices(sizes);
    EXPECT_EQ(sweep.cases, 12 * sizes.size());
    EXPECT_EQ(sweep.mismatches, 0u) << sweep.firstMismatch;
    EXPECT_EQ(sweep.overEvalBound, 0u);
}

TEST(MedianCi, TabledCoverageMatchesLogGammaSpecUpTo2e5)
{
    // test_ci.cc checks every k to n = 600 and the walks' k to 2e4;
    // past it, the walks' k at a stride to 2e5.
    std::vector<size_t> walked;
    for (size_t n = 20000; n < 200000; n += 997)
        walked.push_back(n);
    walked.push_back(200000);
    test::MedianCoverageSweep sweep =
        test::sweepMedianOrderCoverage({}, walked);
    EXPECT_EQ(sweep.cases, 21 * walked.size());
    EXPECT_EQ(sweep.mismatches, 0u) << sweep.firstMismatch;
    EXPECT_EQ(sweep.wrongK, 0u);
}

TEST(SpeedupOfMedians, CountingWalkMatchesSortSpecUpTo1e4)
{
    // test_speedup.cc covers n up to 2000; past it, a stride to 1e4.
    std::vector<size_t> sizes;
    for (size_t n = 2001; n < 10000; n += 1009)
        sizes.push_back(n);
    sizes.push_back(10000);
    test::SpeedupSweep sweep = test::sweepSpeedupOfMedians(sizes, 60);
    EXPECT_EQ(sweep.cases, 9 * sizes.size());
    EXPECT_EQ(sweep.mismatches, 0u) << sweep.firstMismatch;
}

// ---------------------------------------------------------------
// Simulated-testbed properties over the benchmark x machine grid.
// ---------------------------------------------------------------

struct GridCase
{
    const char *benchmark;
    const char *machine;
};

class WorkloadGrid : public ::testing::TestWithParam<GridCase>
{
};

TEST_P(WorkloadGrid, DeterministicPositiveAndDayStable)
{
    auto [bench_name, machine_id] = GetParam();
    const auto &bench = sim::rodiniaByName(bench_name);
    const auto &machine = sim::machineById(machine_id);
    if (bench.kind == sim::BenchmarkKind::Cuda && !machine.hasGpu())
        GTEST_SKIP() << "CUDA benchmark on GPU-less machine";

    sim::SimulatedWorkload a(bench, machine, 2, 77);
    sim::SimulatedWorkload b(bench, machine, 2, 77);
    auto xs = a.sampleMany(300);
    auto ys = b.sampleMany(300);
    for (size_t i = 0; i < xs.size(); ++i) {
        ASSERT_DOUBLE_EQ(xs[i], ys[i]);
        ASSERT_GT(xs[i], 0.0);
    }

    // Day-to-day means stay within 10% (the Fig. 5 precondition).
    sim::SimulatedWorkload other_day(bench, machine, 3, 77);
    double m0 = stats::mean(xs);
    double m1 = stats::mean(other_day.sampleMany(1000));
    EXPECT_LT(std::fabs(m0 - m1) / m0, 0.1)
        << bench_name << " on " << machine_id;
}

std::vector<GridCase>
gridCases()
{
    std::vector<GridCase> cases;
    for (const char *bench :
         {"backprop", "hotspot", "sc", "bfs-CUDA", "sc-CUDA"})
        for (const char *machine : {"machine1", "machine2", "machine3"})
            cases.push_back({bench, machine});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    BenchmarkMachineGrid, WorkloadGrid, ::testing::ValuesIn(gridCases()),
    [](const ::testing::TestParamInfo<GridCase> &info) {
        std::string name = std::string(info.param.benchmark) + "_" +
                           info.param.machine;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------
// Incremental statistics engine: randomized append/read
// interleavings must match batch recomputation bit for bit.
// ---------------------------------------------------------------

/** Bitwise double equality (NaN == NaN, -0.0 != 0.0). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/**
 * Drive one randomized append/read schedule and check every read
 * against a from-scratch batch recomputation with the src/stats
 * functions on a copy of the arrival-order values. The engine must
 * match each one bit for bit, no matter which reads happened before or
 * how the appends were batched.
 */
void
interleave(uint64_t seed,
           const std::function<double(rng::Xoshiro256 &)> &draw)
{
    rng::Xoshiro256 gen(seed);
    core::SampleSeries series;
    std::vector<double> arrived;
    // Randomized schedule: bursts of appends (1..17) interleaved with a
    // randomly chosen read, repeated until ~600 samples.
    while (arrived.size() < 600) {
        size_t burst = 1 + gen.next() % 17;
        for (size_t i = 0; i < burst; ++i) {
            double v = draw(gen);
            series.append(v);
            arrived.push_back(v);
        }
        size_t n = arrived.size();
        std::vector<double> copy = arrived;
        switch (gen.next() % 6) {
        case 0:
            ASSERT_TRUE(sameBits(series.stats().quantile(0.5),
                                 stats::quantile(copy, 0.5)))
                << "median at n=" << n;
            break;
        case 1: {
            if (n < 2)
                break;
            double batch = stats::ksStatistic(series.firstHalf(),
                                              series.secondHalf());
            ASSERT_TRUE(sameBits(series.stats().ksHalves(), batch))
                << "ksHalves at n=" << n;
            break;
        }
        case 2: {
            auto warm = series.stats().medianCi(0.95);
            auto batch = stats::medianCi(copy, 0.95);
            ASSERT_TRUE(sameBits(warm.lower, batch.lower) &&
                        sameBits(warm.upper, batch.upper))
                << "medianCi at n=" << n;
            break;
        }
        case 3: {
            if (n < 2)
                break;
            auto ci = series.stats().meanCi(0.95);
            auto batch = stats::meanCi(copy, 0.95);
            ASSERT_TRUE(sameBits(ci.lower, batch.lower) &&
                        sameBits(ci.upper, batch.upper))
                << "meanCi at n=" << n;
            break;
        }
        case 4: {
            size_t k = gen.next() % n;
            std::sort(copy.begin(), copy.end());
            ASSERT_TRUE(sameBits(series.stats().orderStat(k), copy[k]))
                << "orderStat(" << k << ") at n=" << n;
            break;
        }
        default: {
            size_t count = 1 + gen.next() % n;
            double lo = arrived[0], hi = arrived[0];
            for (size_t i = 1; i < count; ++i) {
                lo = std::min(lo, arrived[i]);
                hi = std::max(hi, arrived[i]);
            }
            auto [cl, ch] = series.stats().prefixRange(count);
            ASSERT_TRUE(sameBits(cl, lo) && sameBits(ch, hi))
                << "prefixRange(" << count << ") at n=" << n;
            break;
        }
        }
    }
}

class StatsEngineProperties
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(StatsEngineProperties, InterleavedReadsMatchBatchBitForBit)
{
    auto sampler = rng::syntheticByName(GetParam()).make();
    for (uint64_t seed : {11u, 12u, 13u})
        interleave(seed, [&](rng::Xoshiro256 &gen) {
            return sampler->sample(gen);
        });
}

TEST(StatsEngineEdgeCases, DuplicateHeavyInterleavingsMatchBatch)
{
    // Small discrete support maximizes ties — the hardest case for the
    // sorted-run merge and the KS tie-group walk. radix 1 is the
    // all-constant series.
    for (uint64_t radix : {1u, 2u, 5u})
        interleave(20 + radix, [radix](rng::Xoshiro256 &gen) {
            return static_cast<double>(gen.next() % radix);
        });
}

TEST(StatsEngineEdgeCases, NanAppendsKeepTheSortedViewDeterministic)
{
    // std::sort on NaN-contaminated data is undefined behavior, so the
    // batch reference here is a comparator sort with NaNs ordered last
    // — the engine's documented ordering. Reads that route through
    // order statistics must agree with it exactly.
    double nan = std::numeric_limits<double>::quiet_NaN();
    rng::Xoshiro256 gen(31);
    core::SampleSeries series;
    std::vector<double> arrived;
    auto nanLast = [](double x, double y) {
        bool xn = std::isnan(x), yn = std::isnan(y);
        if (xn || yn)
            return !xn && yn;
        return x < y;
    };
    while (arrived.size() < 300) {
        size_t burst = 1 + gen.next() % 9;
        for (size_t i = 0; i < burst; ++i) {
            double v = gen.next() % 8 == 0
                           ? nan
                           : static_cast<double>(gen.next() % 100);
            series.append(v);
            arrived.push_back(v);
        }
        std::vector<double> reference = arrived;
        std::stable_sort(reference.begin(), reference.end(), nanLast);
        const auto &sorted = series.stats().sorted();
        ASSERT_EQ(sorted.size(), reference.size());
        for (size_t i = 0; i < reference.size(); ++i)
            ASSERT_TRUE(sameBits(sorted[i], reference[i]))
                << "index " << i << " at n=" << arrived.size();
        size_t k = gen.next() % arrived.size();
        ASSERT_TRUE(sameBits(series.stats().orderStat(k), reference[k]))
            << "orderStat(" << k << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSynthetics, StatsEngineProperties,
    ::testing::Values("normal", "lognormal", "uniform", "bimodal",
                      "cauchy", "constant"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

} // anonymous namespace
