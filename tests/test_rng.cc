/**
 * @file
 * Tests for the RNG substrate: generator determinism and quality
 * smoke checks, sampler moments, and the synthetic-distribution
 * registry the stopping heuristics were tuned on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "rng/sampler.hh"
#include "rng/synthetic.hh"
#include "rng/xoshiro.hh"
#include "stats/autocorr.hh"
#include "stats/descriptive.hh"

namespace
{

using namespace sharp::rng;
namespace stats = sharp::stats;

TEST(Xoshiro, DeterministicGivenSeed)
{
    Xoshiro256 a(12345), b(12345);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, NextMatchesReferenceVectors)
{
    // The first outputs for two seeds, as the generator has always
    // produced them: every recorded run and baseline depends on them.
    const uint64_t seed0[] = {
        0x53175D61490B23DFULL, 0x61DA6F3DC380D507ULL,
        0x5C0FDF91EC9A7BFCULL, 0x02EEBF8C3BBE5E1AULL,
        0x7ECA04EBAF4A5EEAULL, 0x0543C37757F08D9AULL,
        0xDB7490C75AB5026EULL, 0xD87343E6464BC959ULL,
    };
    const uint64_t seed12345[] = {
        0x8D948A82DEF8A568ULL, 0x3477F953796702A0ULL,
        0x15CAA2FCE6DB8D69ULL, 0x2CEF8853C20C6DD0ULL,
        0x43FF3FFF9C039CD9ULL, 0xB9C18B4A72333287ULL,
        0x3BFB60E63D63CC32ULL, 0xCD0AE50EDEAB4142ULL,
    };
    Xoshiro256 a(0), b(12345);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(a.next(), seed0[i]) << "seed 0, output " << i;
        EXPECT_EQ(b.next(), seed12345[i]) << "seed 12345, output " << i;
    }
}

/**
 * The reference for nextBelow: Lemire's rejection with the threshold
 * computed, by a 64-bit division, on every call. Counts the outputs it
 * rejects in @p rejected.
 */
uint64_t
nextBelowAlwaysDividing(Xoshiro256 &gen, uint64_t bound, size_t &rejected)
{
    uint64_t threshold = (0 - bound) % bound;
    while (true) {
        __uint128_t mul = static_cast<__uint128_t>(gen.next()) * bound;
        if (static_cast<uint64_t>(mul) >= threshold)
            return static_cast<uint64_t>(mul >> 64);
        ++rejected;
    }
}

TEST(Xoshiro, NextBelowKeepsTheAlwaysDividingStream)
{
    // The early-out skips the division only where its threshold
    // cannot reject, so both make the same draws from the same
    // outputs. Near 2^63 + 1 about half the draws are rejected.
    const uint64_t bounds[] = {
        1, 2, 3, 7, 1000, (1ULL << 32) + 1, (1ULL << 63) + 1,
        3ULL << 62, ~0ULL,
    };
    for (uint64_t bound : bounds) {
        Xoshiro256 fast(bound), spec(bound);
        size_t rejected = 0;
        for (int i = 0; i < 100000; ++i) {
            uint64_t got = fast.nextBelow(bound);
            ASSERT_EQ(got, nextBelowAlwaysDividing(spec, bound, rejected))
                << "bound " << bound << ", draw " << i;
            ASSERT_LT(got, bound);
        }
        EXPECT_EQ(fast.next(), spec.next()) << "bound " << bound;
        if (bound == (1ULL << 63) + 1) {
            EXPECT_GT(rejected, 40000u);
        }
    }
}

TEST(Xoshiro, DifferentSeedsDiverge)
{
    Xoshiro256 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_EQ(same, 0);
}

TEST(Xoshiro, NextDoubleInUnitInterval)
{
    Xoshiro256 gen(7);
    for (int i = 0; i < 10000; ++i) {
        double u = gen.nextDouble();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Xoshiro, NextDoubleOpenNeverZero)
{
    Xoshiro256 gen(7);
    for (int i = 0; i < 10000; ++i) {
        double u = gen.nextDoubleOpen();
        EXPECT_GT(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Xoshiro, NextBelowRespectsBound)
{
    Xoshiro256 gen(3);
    std::vector<int> counts(7, 0);
    for (int i = 0; i < 70000; ++i) {
        uint64_t v = gen.nextBelow(7);
        ASSERT_LT(v, 7u);
        ++counts[v];
    }
    // Roughly uniform: each bucket within 10% of expectation.
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 1000);
}

TEST(Xoshiro, UniformBitsHaveBalancedPopcount)
{
    Xoshiro256 gen(99);
    long ones = 0;
    const int draws = 10000;
    for (int i = 0; i < draws; ++i)
        ones += __builtin_popcountll(gen.next());
    double fraction =
        static_cast<double>(ones) / (64.0 * static_cast<double>(draws));
    EXPECT_NEAR(fraction, 0.5, 0.01);
}

TEST(Xoshiro, SplitYieldsIndependentStreams)
{
    Xoshiro256 parent(42);
    Xoshiro256 child1 = parent.split();
    Xoshiro256 child2 = parent.split();
    int same12 = 0, same1p = 0;
    for (int i = 0; i < 64; ++i) {
        uint64_t c1 = child1.next(), c2 = child2.next(),
                 p = parent.next();
        same12 += c1 == c2;
        same1p += c1 == p;
    }
    EXPECT_EQ(same12, 0);
    EXPECT_EQ(same1p, 0);
}

TEST(SplitMixSeeding, ZeroSeedIsValid)
{
    Xoshiro256 gen(0);
    // Must not be stuck at zero.
    uint64_t x = gen.next();
    uint64_t y = gen.next();
    EXPECT_TRUE(x != 0 || y != 0);
    EXPECT_NE(x, y);
}

TEST(NormalSampler, MomentsMatch)
{
    Xoshiro256 gen(11);
    NormalSampler sampler(10.0, 2.0);
    auto xs = sampler.sampleMany(gen, 20000);
    EXPECT_NEAR(stats::mean(xs), 10.0, 0.05);
    EXPECT_NEAR(stats::stddev(xs), 2.0, 0.05);
    EXPECT_NEAR(stats::skewness(xs), 0.0, 0.06);
}

TEST(NormalSampler, RejectsNegativeSigma)
{
    EXPECT_THROW(NormalSampler(0.0, -1.0), std::invalid_argument);
}

TEST(LogNormalSampler, MedianMatchesExpMu)
{
    Xoshiro256 gen(12);
    LogNormalSampler sampler(2.0, 0.5);
    auto xs = sampler.sampleMany(gen, 20000);
    EXPECT_NEAR(stats::median(xs), std::exp(2.0), 0.15);
    EXPECT_GT(stats::skewness(xs), 0.5); // right-skewed
}

TEST(UniformSampler, RangeAndMean)
{
    Xoshiro256 gen(13);
    UniformSampler sampler(5.0, 15.0);
    auto xs = sampler.sampleMany(gen, 20000);
    for (double x : xs) {
        ASSERT_GE(x, 5.0);
        ASSERT_LT(x, 15.0);
    }
    EXPECT_NEAR(stats::mean(xs), 10.0, 0.1);
    // Uniform has excess kurtosis -1.2.
    EXPECT_NEAR(stats::excessKurtosis(xs), -1.2, 0.1);
}

TEST(UniformSampler, RejectsEmptyRange)
{
    EXPECT_THROW(UniformSampler(2.0, 2.0), std::invalid_argument);
}

TEST(LogUniformSampler, LogIsUniform)
{
    Xoshiro256 gen(14);
    LogUniformSampler sampler(1.0, 100.0);
    auto xs = sampler.sampleMany(gen, 20000);
    std::vector<double> logs;
    for (double x : xs) {
        ASSERT_GE(x, 1.0);
        ASSERT_LT(x, 100.0);
        logs.push_back(std::log(x));
    }
    EXPECT_NEAR(stats::mean(logs), std::log(100.0) / 2.0, 0.05);
    EXPECT_NEAR(stats::excessKurtosis(logs), -1.2, 0.1);
}

TEST(LogUniformSampler, RejectsNonPositiveLow)
{
    EXPECT_THROW(LogUniformSampler(0.0, 10.0), std::invalid_argument);
}

TEST(LogisticSampler, MeanAndHeavierTails)
{
    Xoshiro256 gen(15);
    LogisticSampler sampler(10.0, 0.6);
    auto xs = sampler.sampleMany(gen, 30000);
    EXPECT_NEAR(stats::mean(xs), 10.0, 0.05);
    // Logistic variance = s^2 pi^2 / 3; excess kurtosis = 1.2.
    EXPECT_NEAR(stats::stddev(xs), 0.6 * M_PI / std::sqrt(3.0), 0.03);
    EXPECT_NEAR(stats::excessKurtosis(xs), 1.2, 0.35);
}

TEST(CauchySampler, MedianRobustButVarianceWild)
{
    Xoshiro256 gen(16);
    CauchySampler sampler(10.0, 0.5);
    auto xs = sampler.sampleMany(gen, 20000);
    EXPECT_NEAR(stats::median(xs), 10.0, 0.05);
    // IQR of Cauchy = 2 * scale.
    EXPECT_NEAR(stats::iqr(xs), 1.0, 0.1);
}

TEST(ExponentialSampler, MeanIsInverseRate)
{
    Xoshiro256 gen(17);
    ExponentialSampler sampler(0.5);
    auto xs = sampler.sampleMany(gen, 20000);
    EXPECT_NEAR(stats::mean(xs), 2.0, 0.06);
    for (double x : xs)
        ASSERT_GT(x, 0.0);
}

TEST(ConstantSampler, AlwaysSameValue)
{
    Xoshiro256 gen(18);
    ConstantSampler sampler(10.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(sampler.sample(gen), 10.0);
}

TEST(MixtureSampler, WeightsRespected)
{
    Xoshiro256 gen(19);
    std::vector<MixtureSampler::Component> comps;
    comps.push_back({0.7, std::make_shared<ConstantSampler>(1.0)});
    comps.push_back({0.3, std::make_shared<ConstantSampler>(2.0)});
    MixtureSampler mixture(std::move(comps));
    int low = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        low += mixture.sample(gen) == 1.0;
    EXPECT_NEAR(static_cast<double>(low) / n, 0.7, 0.02);
}

TEST(MixtureSampler, RejectsBadComponents)
{
    EXPECT_THROW(MixtureSampler({}), std::invalid_argument);
    std::vector<MixtureSampler::Component> comps;
    comps.push_back({-1.0, std::make_shared<ConstantSampler>(1.0)});
    EXPECT_THROW(MixtureSampler(std::move(comps)), std::invalid_argument);
}

TEST(SinusoidalSampler, StrongAutocorrelation)
{
    Xoshiro256 gen(20);
    SinusoidalSampler sampler(10.0, 2.0, 50.0, 0.3);
    auto xs = sampler.sampleMany(gen, 2000);
    EXPECT_GT(stats::autocorrelation(xs, 1), 0.8);
    EXPECT_NEAR(stats::mean(xs), 10.0, 0.2);
}

TEST(Ar1Sampler, Lag1MatchesPhi)
{
    Xoshiro256 gen(21);
    Ar1Sampler sampler(5.0, 0.8, 0.5);
    auto xs = sampler.sampleMany(gen, 20000);
    EXPECT_NEAR(stats::autocorrelation(xs, 1), 0.8, 0.03);
    EXPECT_NEAR(stats::mean(xs), 5.0, 0.1);
}

TEST(Ar1Sampler, RejectsNonStationaryPhi)
{
    EXPECT_THROW(Ar1Sampler(0.0, 1.0, 1.0), std::invalid_argument);
}

TEST(AffineSampler, ShiftsAndScales)
{
    Xoshiro256 gen(22);
    auto inner = std::make_shared<ConstantSampler>(2.0);
    AffineSampler affine(inner, 3.0, 1.0);
    EXPECT_DOUBLE_EQ(affine.sample(gen), 7.0);
}

TEST(ClampSampler, BoundsOutput)
{
    Xoshiro256 gen(23);
    auto inner = std::make_shared<NormalSampler>(0.0, 10.0);
    ClampSampler clamp(inner, -1.0, 1.0);
    for (int i = 0; i < 1000; ++i) {
        double x = clamp.sample(gen);
        ASSERT_GE(x, -1.0);
        ASSERT_LE(x, 1.0);
    }
}

TEST(SamplerDescribe, MentionsFamilyAndParameters)
{
    EXPECT_EQ(NormalSampler(10, 2).describe(), "normal(10, 2)");
    EXPECT_EQ(CauchySampler(10, 0.5).describe(), "cauchy(10, 0.5)");
    EXPECT_NE(SinusoidalSampler(1, 2, 3, 0.1).describe().find("period"),
              std::string::npos);
}

TEST(SyntheticRegistry, HasTheTenPaperDistributions)
{
    const auto &registry = syntheticRegistry();
    ASSERT_EQ(registry.size(), 10u);
    // Paper §IV-c: normal, log-normal, uniform, log-uniform, logistic,
    // bi-modal, multi-modal, autocorrelated sinusoidal, Cauchy, constant.
    EXPECT_EQ(registry[0].name, "normal");
    EXPECT_EQ(registry[9].name, "constant");
    int multimodal = 0, correlated = 0;
    for (const auto &spec : registry) {
        multimodal += spec.trueModes > 1;
        correlated += spec.correlated;
    }
    EXPECT_EQ(multimodal, 2);
    EXPECT_EQ(correlated, 1);
}

TEST(SyntheticRegistry, SamplersAreConstructibleAndFinite)
{
    Xoshiro256 gen(31);
    for (const auto &spec : syntheticRegistry()) {
        auto sampler = spec.make();
        ASSERT_TRUE(sampler) << spec.name;
        for (int i = 0; i < 100; ++i)
            EXPECT_TRUE(std::isfinite(sampler->sample(gen)))
                << spec.name;
    }
}

TEST(SyntheticRegistry, LookupByName)
{
    EXPECT_EQ(syntheticByName("cauchy").truth,
              SyntheticClass::HeavyTail);
    EXPECT_EQ(syntheticByName("bimodal").trueModes, 2);
    EXPECT_THROW(syntheticByName("nope"), std::out_of_range);
}

TEST(SyntheticRegistry, FreshSamplersAreIndependent)
{
    // Stateful samplers (sinusoidal) must restart per make() call.
    const auto &spec = syntheticByName("sinusoidal");
    Xoshiro256 g1(5), g2(5);
    auto s1 = spec.make();
    auto s2 = spec.make();
    for (int i = 0; i < 20; ++i)
        EXPECT_DOUBLE_EQ(s1->sample(g1), s2->sample(g2));
}

} // anonymous namespace
