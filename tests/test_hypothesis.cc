/**
 * @file
 * Tests for the hypothesis tests and the special functions behind
 * their p-values.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "rng/sampler.hh"
#include "stats/ci.hh"
#include "stats/descriptive.hh"
#include "stats/special.hh"
#include "stats/tests.hh"
#include "support/samplers.hh"

namespace
{

using namespace sharp::stats;
using namespace sharp::rng;

TEST(Special, NormalCdfKnownValues)
{
    EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normalCdf(1.959963985), 0.975, 1e-6);
    EXPECT_NEAR(normalCdf(-1.0), 0.158655, 1e-5);
}

TEST(Special, NormalQuantileInvertsCdf)
{
    for (double p : {0.001, 0.05, 0.25, 0.5, 0.9, 0.999}) {
        EXPECT_NEAR(normalCdf(normalQuantile(p)), p, 1e-9) << p;
    }
    EXPECT_THROW(normalQuantile(0.0), std::invalid_argument);
    EXPECT_THROW(normalQuantile(1.0), std::invalid_argument);
}

TEST(Special, LogGammaMatchesFactorials)
{
    EXPECT_NEAR(logGamma(1.0), 0.0, 1e-12);
    EXPECT_NEAR(logGamma(5.0), std::log(24.0), 1e-10);
    EXPECT_NEAR(logGamma(0.5), 0.5 * std::log(M_PI), 1e-10);
}

TEST(Special, RegularizedGammaBoundaries)
{
    EXPECT_DOUBLE_EQ(regularizedGammaP(2.0, 0.0), 0.0);
    EXPECT_NEAR(regularizedGammaP(1.0, 1.0), 1.0 - std::exp(-1.0),
                1e-10);
    // chi2(2) CDF at 5.991 ~ 0.95.
    EXPECT_NEAR(chiSquareCdf(5.991, 2.0), 0.95, 1e-3);
}

TEST(Special, RegularizedBetaSymmetry)
{
    EXPECT_NEAR(regularizedBeta(0.3, 2.0, 5.0) +
                    regularizedBeta(0.7, 5.0, 2.0),
                1.0, 1e-10);
    EXPECT_DOUBLE_EQ(regularizedBeta(0.0, 1.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(regularizedBeta(1.0, 1.0, 1.0), 1.0);
}

TEST(Special, StudentTKnownQuantiles)
{
    // t_{0.975, 10} = 2.228, t_{0.975, 30} = 2.042 (standard tables).
    EXPECT_NEAR(studentTQuantile(0.975, 10.0), 2.228, 2e-3);
    EXPECT_NEAR(studentTQuantile(0.975, 30.0), 2.042, 2e-3);
    // Large dof converges to the normal quantile.
    EXPECT_NEAR(studentTQuantile(0.975, 1e6), 1.95996, 1e-3);
}

/** studentTQuantile over @p queries ({p, dof} pairs), as raw bits. */
std::vector<uint64_t>
studentTBits(const std::vector<std::pair<double, double>> &queries)
{
    std::vector<uint64_t> out;
    out.reserve(queries.size());
    for (auto [p, dof] : queries)
        out.push_back(std::bit_cast<uint64_t>(studentTQuantile(p, dof)));
    return out;
}

/** The same values computed on a new thread, whose table is empty. */
std::vector<uint64_t>
studentTBitsOnFreshThread(const std::vector<std::pair<double, double>> &queries)
{
    std::vector<uint64_t> out;
    std::thread([&] { out = studentTBits(queries); }).join();
    return out;
}

TEST(Special, StudentTTableHitsEqualFreshBisections)
{
    // Three probabilities interleaved over every tabled dof, then
    // non-integer dof (bisected, never tabled) and dof above 2000
    // (the normal quantile).
    std::vector<std::pair<double, double>> queries;
    for (int dof = 1; dof <= 2000; ++dof) {
        for (double p : {0.95, 0.975, 0.995})
            queries.push_back({p, static_cast<double>(dof)});
    }
    for (double dof : {0.5, 1.5, 7.25, 399.9, 1999.5, 2000.5, 2001.0, 1e5}) {
        for (double p : {0.95, 0.975, 0.995})
            queries.push_back({p, dof});
    }

    // Each query is new to a fresh thread, so every value it returns
    // is a bisection; this thread's second pass reads its warm table.
    std::vector<uint64_t> fresh = studentTBitsOnFreshThread(queries);
    std::vector<uint64_t> first = studentTBits(queries);
    std::vector<uint64_t> warm = studentTBits(queries);
    ASSERT_EQ(fresh.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
        ASSERT_EQ(first[i], fresh[i])
            << "p=" << queries[i].first << " dof=" << queries[i].second;
        ASSERT_EQ(warm[i], fresh[i])
            << "p=" << queries[i].first << " dof=" << queries[i].second;
    }

    // Two threads filling their own tables at once, one in reverse.
    std::vector<std::pair<double, double>> reversed(queries.rbegin(),
                                                    queries.rend());
    std::vector<uint64_t> forward_bits, reverse_bits;
    std::thread forward([&] {
        studentTBits(queries);
        forward_bits = studentTBits(queries);
    });
    std::thread reverse([&] {
        studentTBits(reversed);
        reverse_bits = studentTBits(reversed);
    });
    forward.join();
    reverse.join();
    EXPECT_EQ(forward_bits, fresh);
    EXPECT_EQ(std::vector<uint64_t>(reverse_bits.rbegin(),
                                    reverse_bits.rend()),
              fresh);
}

TEST(Special, StudentTTableReusesRowsPastItsCapacity)
{
    // Six probabilities share the table's rows, so rows are evicted
    // and refilled; every value still equals a fresh bisection.
    std::vector<std::pair<double, double>> queries;
    for (int dof = 1; dof <= 60; ++dof) {
        for (double p : {0.9, 0.95, 0.975, 0.99, 0.995, 0.999})
            queries.push_back({p, static_cast<double>(dof)});
    }
    std::vector<uint64_t> fresh = studentTBitsOnFreshThread(queries);
    for (int pass = 0; pass < 2; ++pass)
        EXPECT_EQ(studentTBits(queries), fresh) << "pass " << pass;
}

TEST(Special, StudentTCdfSymmetry)
{
    for (double t : {0.5, 1.0, 2.5}) {
        EXPECT_NEAR(studentTCdf(t, 7.0) + studentTCdf(-t, 7.0), 1.0,
                    1e-10);
    }
}

TEST(Special, KolmogorovCdfKnownValues)
{
    // Q(1.36) ~ 0.049 (the classic 5% critical value).
    EXPECT_NEAR(kolmogorovComplementaryCdf(1.36), 0.049, 2e-3);
    EXPECT_DOUBLE_EQ(kolmogorovComplementaryCdf(0.0), 1.0);
    EXPECT_LT(kolmogorovComplementaryCdf(3.0), 1e-6);
}

TEST(KsTest, SameDistributionHighP)
{
    Xoshiro256 gen(1);
    NormalSampler sampler(10.0, 1.0);
    int rejections = 0;
    for (int trial = 0; trial < 40; ++trial) {
        auto a = sampler.sampleMany(gen, 200);
        auto b = sampler.sampleMany(gen, 200);
        rejections += ksTest(a, b).rejectAt(0.05);
    }
    // ~5% false positive rate expected; allow generous slack.
    EXPECT_LE(rejections, 6);
}

TEST(KsTest, DifferentDistributionLowP)
{
    Xoshiro256 gen(2);
    NormalSampler s1(10.0, 1.0), s2(11.0, 1.0);
    auto a = s1.sampleMany(gen, 300);
    auto b = s2.sampleMany(gen, 300);
    TestResult res = ksTest(a, b);
    EXPECT_LT(res.pValue, 1e-6);
    EXPECT_GT(res.statistic, 0.2);
}

TEST(MannWhitney, DetectsLocationShift)
{
    Xoshiro256 gen(3);
    NormalSampler s1(10.0, 1.0), s2(10.8, 1.0);
    auto a = s1.sampleMany(gen, 200);
    auto b = s2.sampleMany(gen, 200);
    EXPECT_LT(mannWhitneyU(a, b).pValue, 0.001);
}

TEST(MannWhitney, NullCalibration)
{
    Xoshiro256 gen(4);
    LogNormalSampler sampler(1.0, 0.6);
    int rejections = 0;
    for (int trial = 0; trial < 40; ++trial) {
        auto a = sampler.sampleMany(gen, 100);
        auto b = sampler.sampleMany(gen, 100);
        rejections += mannWhitneyU(a, b).rejectAt(0.05);
    }
    EXPECT_LE(rejections, 6);
}

TEST(MannWhitney, AllTiedGivesPOne)
{
    std::vector<double> a(10, 5.0), b(12, 5.0);
    EXPECT_DOUBLE_EQ(mannWhitneyU(a, b).pValue, 1.0);
}

TEST(MannWhitney, HandComputedU)
{
    // a = {1, 2}, b = {3, 4}: U_a = 0.
    EXPECT_DOUBLE_EQ(mannWhitneyU({1.0, 2.0}, {3.0, 4.0}).statistic, 0.0);
    // Reversed: U_a = nx*ny = 4.
    EXPECT_DOUBLE_EQ(mannWhitneyU({3.0, 4.0}, {1.0, 2.0}).statistic, 4.0);
}

TEST(WelchT, DetectsMeanDifference)
{
    Xoshiro256 gen(5);
    NormalSampler s1(10.0, 1.0), s2(10.5, 2.0);
    auto a = s1.sampleMany(gen, 300);
    auto b = s2.sampleMany(gen, 300);
    TestResult res = welchTTest(a, b);
    EXPECT_LT(res.pValue, 0.01);
    EXPECT_LT(res.statistic, 0.0); // a's mean is smaller
}

TEST(WelchT, EqualMeansHighP)
{
    Xoshiro256 gen(6);
    NormalSampler s1(10.0, 1.0), s2(10.0, 3.0);
    int rejections = 0;
    for (int trial = 0; trial < 40; ++trial) {
        auto a = s1.sampleMany(gen, 150);
        auto b = s2.sampleMany(gen, 150);
        rejections += welchTTest(a, b).rejectAt(0.05);
    }
    EXPECT_LE(rejections, 6);
}

TEST(JarqueBera, AcceptsNormalRejectsExponential)
{
    Xoshiro256 gen(7);
    NormalSampler normal(0.0, 1.0);
    auto xs = normal.sampleMany(gen, 1000);
    EXPECT_GT(jarqueBera(xs).pValue, 0.01);

    ExponentialSampler expo(1.0);
    auto ys = expo.sampleMany(gen, 1000);
    EXPECT_LT(jarqueBera(ys).pValue, 1e-6);
}

TEST(AndersonDarling, AcceptsNormalRejectsUniform)
{
    Xoshiro256 gen(8);
    NormalSampler normal(5.0, 2.0);
    auto xs = normal.sampleMany(gen, 500);
    EXPECT_GT(andersonDarlingNormal(xs).pValue, 0.01);

    UniformSampler uniform(0.0, 1.0);
    auto ys = uniform.sampleMany(gen, 500);
    EXPECT_LT(andersonDarlingNormal(ys).pValue, 0.001);
}

TEST(AndersonDarling, ConstantSampleIsVacuouslyNormal)
{
    std::vector<double> xs(20, 3.0);
    EXPECT_DOUBLE_EQ(andersonDarlingNormal(xs).pValue, 1.0);
}

TEST(CramerVonMises, SameDistributionCalibratedP)
{
    Xoshiro256 gen(9);
    NormalSampler sampler(10.0, 1.0);
    int rejections = 0;
    for (int trial = 0; trial < 60; ++trial) {
        auto a = sampler.sampleMany(gen, 150);
        auto b = sampler.sampleMany(gen, 150);
        rejections += cramerVonMises(a, b).rejectAt(0.05);
    }
    // ~5% expected; allow generous slack.
    EXPECT_LE(rejections, 8);
}

TEST(CramerVonMises, DetectsShiftAndScale)
{
    Xoshiro256 gen(10);
    NormalSampler s1(10.0, 1.0), s2(10.5, 1.0), s3(10.0, 2.0);
    auto a = s1.sampleMany(gen, 400);
    EXPECT_LT(cramerVonMises(a, s2.sampleMany(gen, 400)).pValue, 1e-4);
    EXPECT_LT(cramerVonMises(a, s3.sampleMany(gen, 400)).pValue, 1e-4);
}

TEST(CramerVonMises, StatisticGrowsWithSeparation)
{
    Xoshiro256 gen(11);
    NormalSampler s1(0.0, 1.0), near_s(0.3, 1.0), far_s(2.0, 1.0);
    auto a = s1.sampleMany(gen, 300);
    double near_t =
        cramerVonMises(a, near_s.sampleMany(gen, 300)).statistic;
    double far_t =
        cramerVonMises(a, far_s.sampleMany(gen, 300)).statistic;
    EXPECT_GT(far_t, near_t);
}

TEST(CramerVonMises, HandlesTies)
{
    std::vector<double> a = {1.0, 1.0, 2.0, 2.0};
    std::vector<double> b = {1.0, 2.0, 2.0, 3.0};
    TestResult res = cramerVonMises(a, b);
    EXPECT_TRUE(std::isfinite(res.statistic));
    EXPECT_GE(res.pValue, 0.0);
    EXPECT_LE(res.pValue, 1.0);
}

TEST(CramerVonMises, MoreSensitiveThanKsToDiffuseDifference)
{
    // A distribution differing from normal in both tails equally can
    // sit below KS's single-gap radar while CvM integrates it up; at
    // minimum CvM must reject clearly here.
    Xoshiro256 gen(12);
    NormalSampler core_s(10.0, 1.0);
    LogisticSampler wide(10.0, 0.8);
    auto a = core_s.sampleMany(gen, 800);
    auto b = wide.sampleMany(gen, 800);
    EXPECT_LT(cramerVonMises(a, b).pValue, 0.01);
}

TEST(RequiredSampleSize, MatchesClosedFormScaling)
{
    Xoshiro256 gen(13);
    NormalSampler sampler(10.0, 1.0); // CV ~ 0.1
    auto pilot = sampler.sampleMany(gen, 100);
    size_t n_loose = requiredSampleSize(pilot, 0.05, 0.95);
    size_t n_tight = requiredSampleSize(pilot, 0.01, 0.95);
    // Quadratic in 1/width: 5x tighter -> ~25x more runs.
    EXPECT_NEAR(static_cast<double>(n_tight) /
                    static_cast<double>(n_loose),
                25.0, 5.0);
    // Closed form: n ~ (2 * 1.96 * 0.1 / 0.05)^2 ~ 62.
    EXPECT_GT(n_loose, 40u);
    EXPECT_LT(n_loose, 90u);
}

TEST(RequiredSampleSize, PredictionActuallyAchievesTarget)
{
    Xoshiro256 gen(14);
    LogNormalSampler sampler(1.0, 0.4);
    auto pilot = sampler.sampleMany(gen, 60);
    size_t n = requiredSampleSize(pilot, 0.1, 0.95);
    auto full = sampler.sampleMany(gen, n);
    auto ci = meanCi(full, 0.95);
    EXPECT_LT(ci.relativeWidth(mean(full)), 0.13); // target + slack
}

TEST(RequiredSampleSize, ConstantPilotNeedsTwo)
{
    EXPECT_EQ(requiredSampleSize({5.0, 5.0, 5.0}, 0.05), 2u);
}

TEST(RequiredSampleSize, RejectsBadInput)
{
    EXPECT_THROW(requiredSampleSize({1.0}, 0.05),
                 std::invalid_argument);
    EXPECT_THROW(requiredSampleSize({1.0, 2.0}, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(requiredSampleSize({-1.0, 1.0}, 0.05),
                 std::invalid_argument);
}

TEST(HypothesisTests, RejectTooSmallSamples)
{
    EXPECT_THROW(welchTTest({1.0}, {1.0, 2.0}), std::invalid_argument);
    EXPECT_THROW(jarqueBera({1.0, 2.0, 3.0}), std::invalid_argument);
    EXPECT_THROW(andersonDarlingNormal({1.0, 2.0}),
                 std::invalid_argument);
    EXPECT_THROW(mannWhitneyU({}, {1.0}), std::invalid_argument);
}

} // anonymous namespace
