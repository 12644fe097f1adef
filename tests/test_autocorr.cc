/**
 * @file
 * Tests for autocorrelation analysis and effective sample size — the
 * inputs of the autocorrelation-tailored stopping rule.
 */

#include <gtest/gtest.h>

#include "rng/sampler.hh"
#include "stats/autocorr.hh"
#include "support/samplers.hh"

namespace
{

using namespace sharp::stats;
using namespace sharp::rng;

TEST(Autocorrelation, LagZeroIsOne)
{
    std::vector<double> xs = {1.0, 2.0, 3.0, 2.0, 1.0};
    EXPECT_DOUBLE_EQ(autocorrelation(xs, 0), 1.0);
}

TEST(Autocorrelation, IidIsNearZero)
{
    Xoshiro256 gen(1);
    NormalSampler sampler(0.0, 1.0);
    auto xs = sampler.sampleMany(gen, 5000);
    for (size_t lag : {1u, 2u, 5u, 10u})
        EXPECT_NEAR(autocorrelation(xs, lag), 0.0, 0.05) << lag;
}

TEST(Autocorrelation, Ar1MatchesPhiPowers)
{
    Xoshiro256 gen(2);
    Ar1Sampler sampler(0.0, 0.7, 1.0);
    auto xs = sampler.sampleMany(gen, 20000);
    EXPECT_NEAR(autocorrelation(xs, 1), 0.7, 0.03);
    EXPECT_NEAR(autocorrelation(xs, 2), 0.49, 0.04);
    EXPECT_NEAR(autocorrelation(xs, 3), 0.343, 0.04);
}

TEST(Autocorrelation, AlternatingSeriesIsNegative)
{
    std::vector<double> xs;
    for (int i = 0; i < 100; ++i)
        xs.push_back(i % 2 == 0 ? 1.0 : -1.0);
    EXPECT_NEAR(autocorrelation(xs, 1), -1.0, 0.05);
}

TEST(Autocorrelation, ConstantSeriesIsZero)
{
    std::vector<double> xs(50, 3.0);
    EXPECT_DOUBLE_EQ(autocorrelation(xs, 1), 0.0);
}

TEST(Autocorrelation, LagBeyondLengthIsZero)
{
    std::vector<double> xs = {1.0, 2.0};
    EXPECT_DOUBLE_EQ(autocorrelation(xs, 5), 0.0);
}

TEST(Acf, ReturnsAllLags)
{
    Xoshiro256 gen(3);
    NormalSampler sampler(0.0, 1.0);
    auto xs = sampler.sampleMany(gen, 200);
    auto rho = acf(xs, 10);
    ASSERT_EQ(rho.size(), 11u);
    EXPECT_DOUBLE_EQ(rho[0], 1.0);
}

TEST(EffectiveSampleSize, FullForIidData)
{
    Xoshiro256 gen(4);
    NormalSampler sampler(0.0, 1.0);
    auto xs = sampler.sampleMany(gen, 2000);
    double ess = effectiveSampleSize(xs);
    EXPECT_GT(ess, 1500.0);
    EXPECT_LE(ess, 2000.0);
}

TEST(EffectiveSampleSize, ReducedForCorrelatedData)
{
    Xoshiro256 gen(5);
    Ar1Sampler sampler(0.0, 0.9, 1.0);
    auto xs = sampler.sampleMany(gen, 2000);
    double ess = effectiveSampleSize(xs);
    // AR(1) with phi=0.9: n_eff ~ n * (1-phi)/(1+phi) ~ n/19.
    EXPECT_LT(ess, 400.0);
    EXPECT_GT(ess, 20.0);
}

TEST(EffectiveSampleSize, SinusoidalProcessSeverelyReduced)
{
    Xoshiro256 gen(6);
    SinusoidalSampler sampler(10.0, 2.0, 50.0, 0.3);
    auto xs = sampler.sampleMany(gen, 1000);
    EXPECT_LT(effectiveSampleSize(xs), 200.0);
}

TEST(EffectiveSampleSize, BoundedByOneAndN)
{
    std::vector<double> short_series = {1.0, 2.0, 3.0};
    double ess = effectiveSampleSize(short_series);
    EXPECT_GE(ess, 1.0);
    EXPECT_LE(ess, 3.0);
}

TEST(LjungBox, RejectsCorrelatedAcceptsIid)
{
    Xoshiro256 gen(7);
    Ar1Sampler correlated(0.0, 0.6, 1.0);
    auto xs = correlated.sampleMany(gen, 500);
    EXPECT_LT(ljungBox(xs, 10).pValue, 1e-6);

    NormalSampler iid(0.0, 1.0);
    int rejections = 0;
    for (int trial = 0; trial < 20; ++trial) {
        auto ys = iid.sampleMany(gen, 300);
        rejections += ljungBox(ys, 10).pValue < 0.05;
    }
    EXPECT_LE(rejections, 4);
}

TEST(LjungBox, RejectsBadArguments)
{
    std::vector<double> xs = {1.0, 2.0, 3.0};
    EXPECT_THROW(ljungBox(xs, 0), std::invalid_argument);
    EXPECT_THROW(ljungBox(xs, 5), std::invalid_argument);
}

} // anonymous namespace
