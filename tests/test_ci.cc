/**
 * @file
 * Tests for confidence intervals, including the right-tailed mean CI
 * the paper's CI stopping rule thresholds (§V-C, Table IV).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "median_ci_spec.hh"
#include "quantile_ci_spec.hh"
#include "rng/sampler.hh"
#include "stats/ci.hh"
#include "stats/descriptive.hh"

namespace
{

using namespace sharp::stats;
using namespace sharp::rng;

TEST(MeanCi, ContainsSampleMean)
{
    std::vector<double> xs = {9.5, 10.2, 10.1, 9.8, 10.4, 9.9};
    ConfidenceInterval ci = meanCi(xs, 0.95);
    double m = mean(xs);
    EXPECT_LT(ci.lower, m);
    EXPECT_GT(ci.upper, m);
    EXPECT_DOUBLE_EQ(ci.level, 0.95);
}

TEST(MeanCi, MatchesTFormula)
{
    std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
    ConfidenceInterval ci = meanCi(xs, 0.95);
    // t_{0.975,4} = 2.776, se = sd/sqrt(5) = sqrt(2.5)/sqrt(5).
    double se = std::sqrt(2.5 / 5.0);
    EXPECT_NEAR(ci.upper - ci.lower, 2.0 * 2.776 * se, 5e-3);
}

TEST(MeanCi, CoverageNearNominal)
{
    Xoshiro256 gen(1);
    NormalSampler sampler(10.0, 2.0);
    int covered = 0;
    const int trials = 300;
    for (int t = 0; t < trials; ++t) {
        auto xs = sampler.sampleMany(gen, 20);
        ConfidenceInterval ci = meanCi(xs, 0.95);
        covered += ci.lower <= 10.0 && 10.0 <= ci.upper;
    }
    EXPECT_NEAR(static_cast<double>(covered) / trials, 0.95, 0.04);
}

TEST(MeanCi, WidthShrinksAsSqrtN)
{
    Xoshiro256 gen(2);
    NormalSampler sampler(0.0, 1.0);
    auto small = sampler.sampleMany(gen, 50);
    auto large = sampler.sampleMany(gen, 5000);
    EXPECT_GT(meanCi(small, 0.95).width(),
              3.0 * meanCi(large, 0.95).width());
}

TEST(MeanCiRightTailed, LowerBoundIsMean)
{
    std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    ConfidenceInterval ci = meanCiRightTailed(xs, 0.95);
    EXPECT_DOUBLE_EQ(ci.lower, mean(xs));
    EXPECT_GT(ci.upper, ci.lower);
    // One-sided width < two-sided half... specifically uses t_{0.95}.
    ConfidenceInterval two = meanCi(xs, 0.95);
    EXPECT_LT(ci.width(), two.width());
}

TEST(RelativeWidth, NormalizesByCenter)
{
    ConfidenceInterval ci{9.0, 11.0, 0.95};
    EXPECT_DOUBLE_EQ(ci.relativeWidth(10.0), 0.2);
    EXPECT_DOUBLE_EQ(ci.relativeWidth(0.0), 0.0);
}

TEST(MedianCi, BracketsTheMedian)
{
    Xoshiro256 gen(3);
    LogNormalSampler sampler(2.0, 0.6);
    auto xs = sampler.sampleMany(gen, 200);
    ConfidenceInterval ci = medianCi(xs, 0.95);
    double med = median(xs);
    EXPECT_LE(ci.lower, med);
    EXPECT_GE(ci.upper, med);
}

TEST(MedianCi, CoverageNearNominal)
{
    Xoshiro256 gen(4);
    // True median of LogNormal(1, 0.5) is e.
    LogNormalSampler sampler(1.0, 0.5);
    int covered = 0;
    const int trials = 200;
    for (int t = 0; t < trials; ++t) {
        auto xs = sampler.sampleMany(gen, 60);
        ConfidenceInterval ci = medianCi(xs, 0.95);
        covered += ci.lower <= M_E && M_E <= ci.upper;
    }
    // Order-statistic interval is conservative: coverage >= nominal.
    EXPECT_GE(static_cast<double>(covered) / trials, 0.92);
}

TEST(MedianCi, TinySampleFallsBackToRange)
{
    std::vector<double> xs = {2.0, 1.0, 3.0};
    ConfidenceInterval ci = medianCi(xs, 0.95);
    EXPECT_DOUBLE_EQ(ci.lower, 1.0);
    EXPECT_DOUBLE_EQ(ci.upper, 3.0);
    // The (min, max) pair of n=3 only covers the median with
    // probability 1 - 2^(1-3) = 0.75; the interval must report that
    // actual coverage, not the requested 0.95.
    EXPECT_DOUBLE_EQ(ci.level, 0.75);
}

TEST(MedianCi, TinySampleCoverageGrowsWithN)
{
    EXPECT_DOUBLE_EQ(medianCi({1.0, 2.0}, 0.95).level, 0.5);
    EXPECT_DOUBLE_EQ(medianCi({1.0, 2.0, 3.0, 4.0}, 0.95).level, 0.875);
    EXPECT_DOUBLE_EQ(medianCi({1.0, 2.0, 3.0, 4.0, 5.0}, 0.95).level,
                     0.9375);
    // From n = 6 on the order-statistic search applies and the label
    // is the requested level again.
    EXPECT_DOUBLE_EQ(
        medianCi({1.0, 2.0, 3.0, 4.0, 5.0, 6.0}, 0.95).level, 0.95);
}

TEST(MedianCi, TabledCoverageMatchesLogGammaSpec)
{
    // Every k for n <= 600, then the walks' k at a stride to 2e4;
    // test_properties.cc strides on to 2e5.
    std::vector<size_t> every_k, walked;
    for (size_t n = 6; n <= 600; ++n)
        every_k.push_back(n);
    for (size_t n = 601; n < 20000; n += 97)
        walked.push_back(n);
    walked.push_back(20000);
    sharp::test::MedianCoverageSweep sweep =
        sharp::test::sweepMedianOrderCoverage(every_k, walked);
    // sum of n/2 over every_k, then 7 k at each of 3 levels per n.
    EXPECT_EQ(sweep.cases, 89994u + 21 * walked.size());
    EXPECT_EQ(sweep.mismatches, 0u) << sweep.firstMismatch;
    EXPECT_EQ(sweep.wrongK, 0u);
}

TEST(MedianCi, LogFactorialTableIsPerThread)
{
    // Two threads grow their own tables at the same time: one a step at
    // a time, one to its largest n at its first call. A shared table
    // would race (the tsan preset runs this) or hand a thread entries
    // the other is still writing.
    auto mismatches = [](const std::vector<size_t> &sizes) {
        size_t bad = 0;
        for (size_t n : sizes) {
            size_t k = medianCiLowerK(n, 0.95);
            for (size_t at : {k, k - 1}) {
                double got = medianOrderCoverage(n, at);
                double spec = sharp::test::medianOrderCoverageSpec(n, at);
                bad += std::bit_cast<uint64_t>(got) !=
                       std::bit_cast<uint64_t>(spec);
            }
        }
        return bad;
    };
    std::vector<size_t> rising, falling;
    for (size_t n = 40; n <= 3040; ++n)
        rising.push_back(n);
    for (size_t n = 6040; n >= 40; n -= 3)
        falling.push_back(n);
    size_t up = 1, down = 1;
    std::thread grower([&] { up = mismatches(rising); });
    std::thread jumper([&] { down = mismatches(falling); });
    grower.join();
    jumper.join();
    EXPECT_EQ(up, 0u);
    EXPECT_EQ(down, 0u);
}

TEST(GeometricMeanCi, BackTransformsLogInterval)
{
    Xoshiro256 gen(5);
    LogNormalSampler sampler(2.0, 0.5);
    auto xs = sampler.sampleMany(gen, 500);
    ConfidenceInterval ci = geometricMeanCi(xs, 0.95);
    double gm = geometricMean(xs);
    EXPECT_LT(ci.lower, gm);
    EXPECT_GT(ci.upper, gm);
    // The true geometric mean is e^2.
    EXPECT_LT(ci.lower, std::exp(2.0) * 1.1);
    EXPECT_GT(ci.upper, std::exp(2.0) * 0.9);
}

TEST(GeometricMeanCi, RejectsNonPositive)
{
    EXPECT_THROW(geometricMeanCi({1.0, -1.0, 2.0}, 0.95),
                 std::invalid_argument);
}

TEST(QuantileCi, BracketsTheQuantile)
{
    Xoshiro256 gen(6);
    NormalSampler sampler(0.0, 1.0);
    auto xs = sampler.sampleMany(gen, 500);
    ConfidenceInterval ci = quantileCi(xs, 0.95, 0.95);
    double q = quantile(xs, 0.95);
    EXPECT_LE(ci.lower, q + 1e-12);
    EXPECT_GE(ci.upper, q - 1e-12);
    // The interval is in the right tail region.
    EXPECT_GT(ci.lower, quantile(xs, 0.80));
}

TEST(QuantileCi, NarrowsWithSampleSize)
{
    Xoshiro256 gen(7);
    NormalSampler sampler(0.0, 1.0);
    auto small = sampler.sampleMany(gen, 100);
    auto large = sampler.sampleMany(gen, 10000);
    EXPECT_GT(quantileCi(small, 0.9, 0.95).width(),
              quantileCi(large, 0.9, 0.95).width());
}

TEST(QuantileCi, IndicesMatchPmfPrefixSumSpecUpTo2000)
{
    // Every n up to 2000; test_properties.cc sweeps on to 1e5.
    std::vector<size_t> sizes;
    for (size_t n = 1; n <= 2000; ++n)
        sizes.push_back(n);
    sharp::test::QuantileCiSweep sweep =
        sharp::test::sweepQuantileCiIndices(sizes);
    EXPECT_EQ(sweep.cases, 24000u);
    EXPECT_EQ(sweep.mismatches, 0u) << sweep.firstMismatch;
    // Two binary searches over at most n indices each.
    EXPECT_EQ(sweep.overEvalBound, 0u);
}

TEST(CiValidation, RejectsBadLevels)
{
    std::vector<double> xs = {1.0, 2.0, 3.0};
    EXPECT_THROW(meanCi(xs, 0.0), std::invalid_argument);
    EXPECT_THROW(meanCi(xs, 1.0), std::invalid_argument);
    EXPECT_THROW(meanCi({1.0}, 0.95), std::invalid_argument);
    EXPECT_THROW(quantileCi(xs, 0.0, 0.95), std::invalid_argument);
}

TEST(SortedOverloads, AgreeWithUnsortedBitForBit)
{
    Xoshiro256 gen(23);
    LogNormalSampler sampler(0.5, 0.8);
    for (size_t n : {1u, 2u, 6u, 47u, 300u}) {
        auto xs = sampler.sampleMany(gen, n);
        auto sorted = xs;
        std::sort(sorted.begin(), sorted.end());
        auto plain = medianCi(xs, 0.95);
        auto fast = medianCiSorted(sorted, 0.95);
        EXPECT_EQ(fast.lower, plain.lower) << "n=" << n;
        EXPECT_EQ(fast.upper, plain.upper) << "n=" << n;
        if (n >= 2) {
            auto qplain = quantileCi(xs, 0.9, 0.95);
            auto qfast = quantileCiSorted(sorted, 0.9, 0.95);
            EXPECT_EQ(qfast.lower, qplain.lower) << "n=" << n;
            EXPECT_EQ(qfast.upper, qplain.upper) << "n=" << n;
        }
    }
}

} // anonymous namespace
