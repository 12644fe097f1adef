/**
 * @file
 * Tests for the similarity metrics (§V-A.3): NAMD vs. KS — including
 * the paper's central claim that equal means can hide shape
 * differences NAMD misses but KS catches.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "rng/sampler.hh"
#include "stats/descriptive.hh"
#include "stats/ecdf.hh"
#include "stats/similarity.hh"

namespace
{

using namespace sharp::stats;
using namespace sharp::rng;

TEST(Namd, ZeroForIdenticalSamples)
{
    std::vector<double> xs = {3.0, 1.0, 4.0, 1.0, 5.0};
    EXPECT_DOUBLE_EQ(namd(xs, xs), 0.0);
}

TEST(Namd, PermutationInvariant)
{
    std::vector<double> a = {1.0, 2.0, 3.0};
    std::vector<double> b = {3.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(namd(a, b), 0.0);
}

TEST(Namd, SymmetricInArguments)
{
    std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
    std::vector<double> b = {2.0, 3.0, 4.0, 6.0};
    EXPECT_DOUBLE_EQ(namd(a, b), namd(b, a));
}

TEST(Namd, KnownHandComputedValue)
{
    // a = {1,3}, b = {2,4}: sorted pairwise |diff| = 1 each, MAD = 1.
    // means 2 and 3 -> namd = 0.5*(1/2 + 1/3) = 5/12.
    EXPECT_NEAR(namd({1.0, 3.0}, {2.0, 4.0}), 5.0 / 12.0, 1e-12);
}

TEST(Namd, HandlesUnequalLengthsByQuantileMatching)
{
    std::vector<double> a = {1.0, 2.0, 3.0, 4.0, 5.0};
    std::vector<double> b = {1.0, 3.0, 5.0};
    double d = namd(a, b);
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 0.2); // same underlying spread, so small
}

TEST(Namd, RejectsEmptyOrZeroMean)
{
    EXPECT_THROW(namd({}, {1.0}), std::invalid_argument);
    EXPECT_THROW(namd({-1.0, 1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Namd, BlindToShapeWhenMeansMatch)
{
    // The paper's hotspot day-3 vs day-5 phenomenon: same mean,
    // different modality. NAMD stays small; KS is large.
    Xoshiro256 gen(1);

    // A: single mode at 10. B: two modes at 8.5 and 11.5 with equal
    // weight — the same mean of 10.
    NormalSampler a_sampler(10.0, 0.3);
    std::vector<MixtureSampler::Component> comps;
    comps.push_back({0.5, std::make_shared<NormalSampler>(8.5, 0.3)});
    comps.push_back({0.5, std::make_shared<NormalSampler>(11.5, 0.3)});
    MixtureSampler b_sampler(std::move(comps));

    auto a = a_sampler.sampleMany(gen, 2000);
    auto b = b_sampler.sampleMany(gen, 2000);

    EXPECT_NEAR(mean(a), mean(b), 0.1);
    double point_metric = namd(a, b);
    double dist_metric = ksStatistic(a, b);
    EXPECT_LT(point_metric, 0.2);
    EXPECT_GT(dist_metric, 0.4);
    // The distribution metric must dominate the point metric here.
    EXPECT_GT(dist_metric, 2.0 * point_metric);
}

TEST(Wasserstein, ZeroForIdenticalSamples)
{
    std::vector<double> xs = {1.0, 5.0, 9.0};
    EXPECT_DOUBLE_EQ(wasserstein1(xs, xs), 0.0);
}

TEST(Wasserstein, PureShiftEqualsDelta)
{
    std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
    std::vector<double> b = {3.5, 4.5, 5.5, 6.5};
    EXPECT_NEAR(wasserstein1(a, b), 2.5, 1e-12);
}

TEST(Wasserstein, UnequalSizesExact)
{
    // X uniform on {0, 1}, Y point mass at 0.5: W1 = 0.5.
    EXPECT_NEAR(wasserstein1({0.0, 1.0}, {0.5}), 0.5, 1e-12);
}

TEST(Wasserstein, TriangleLikeMonotonicity)
{
    std::vector<double> a = {0.0, 1.0, 2.0};
    std::vector<double> near_b = {0.1, 1.1, 2.1};
    std::vector<double> far = {5.0, 6.0, 7.0};
    EXPECT_LT(wasserstein1(a, near_b), wasserstein1(a, far));
}

TEST(Overlap, IdenticalDistributionsNearOne)
{
    Xoshiro256 gen(2);
    NormalSampler sampler(5.0, 1.0);
    auto a = sampler.sampleMany(gen, 1500);
    auto b = sampler.sampleMany(gen, 1500);
    EXPECT_GT(overlapCoefficient(a, b), 0.9);
}

TEST(Overlap, DisjointDistributionsNearZero)
{
    Xoshiro256 gen(3);
    NormalSampler s1(0.0, 0.5), s2(100.0, 0.5);
    auto a = s1.sampleMany(gen, 500);
    auto b = s2.sampleMany(gen, 500);
    EXPECT_LT(overlapCoefficient(a, b), 0.02);
}

TEST(JensenShannon, BoundsAndIdentity)
{
    Xoshiro256 gen(4);
    NormalSampler sampler(0.0, 1.0);
    auto a = sampler.sampleMany(gen, 1000);
    auto b = sampler.sampleMany(gen, 1000);
    double js_same = jensenShannonDivergence(a, b);
    EXPECT_GE(js_same, 0.0);
    EXPECT_LT(js_same, 0.1);

    NormalSampler far(50.0, 1.0);
    auto c = far.sampleMany(gen, 1000);
    double js_far = jensenShannonDivergence(a, c);
    EXPECT_GT(js_far, js_same);
    EXPECT_LE(js_far, std::log(2.0) + 1e-9);
}

TEST(SimilarityReport, AllMetricsPopulated)
{
    Xoshiro256 gen(5);
    NormalSampler s1(10.0, 1.0), s2(12.0, 1.5);
    auto a = s1.sampleMany(gen, 600);
    auto b = s2.sampleMany(gen, 600);
    SimilarityReport rep = SimilarityReport::compute(a, b);
    EXPECT_GT(rep.namd, 0.0);
    EXPECT_GT(rep.ks, 0.0);
    EXPECT_LE(rep.ks, 1.0);
    EXPECT_GT(rep.wasserstein, 1.0);
    EXPECT_GT(rep.overlap, 0.0);
    EXPECT_LT(rep.overlap, 1.0);
    EXPECT_GT(rep.jensenShannon, 0.0);
}

TEST(SortedOverloads, AgreeWithUnsortedBitForBit)
{
    Xoshiro256 gen(17);
    LogNormalSampler s1(1.0, 0.6), s2(1.2, 0.4);
    auto x = s1.sampleMany(gen, 257);
    auto y = s2.sampleMany(gen, 181);
    auto sx = x, sy = y;
    std::sort(sx.begin(), sx.end());
    std::sort(sy.begin(), sy.end());
    EXPECT_EQ(namdSorted(sx, sy), namd(x, y));
    EXPECT_EQ(ksStatisticSorted(sx, sy), ksStatistic(x, y));
    EXPECT_EQ(wasserstein1Sorted(sx, sy), wasserstein1(x, y));
}

} // anonymous namespace
