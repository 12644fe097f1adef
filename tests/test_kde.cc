/**
 * @file
 * Tests for kernel density estimation and mode detection — the
 * machinery behind the paper's multimodality findings (Fig. 4).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "rng/sampler.hh"
#include "stats/descriptive.hh"
#include "stats/kde.hh"

namespace
{

using namespace sharp::stats;
using namespace sharp::rng;

std::vector<double>
mixtureSample(const std::vector<std::pair<double, double>> &centers_weights,
              double sd, size_t n, uint64_t seed)
{
    std::vector<MixtureSampler::Component> comps;
    for (auto [center, weight] : centers_weights) {
        comps.push_back(
            {weight, std::make_shared<NormalSampler>(center, sd)});
    }
    MixtureSampler mixture(std::move(comps));
    Xoshiro256 gen(seed);
    return mixture.sampleMany(gen, n);
}

TEST(Bandwidth, SilvermanMatchesFormula)
{
    Xoshiro256 gen(1);
    NormalSampler sampler(0.0, 2.0);
    auto xs = sampler.sampleMany(gen, 1000);
    double sd = stddev(xs);
    double iqr_scaled = iqr(xs) / 1.34;
    double expected =
        0.9 * std::min(sd, iqr_scaled) * std::pow(1000.0, -0.2);
    EXPECT_NEAR(kdeBandwidth(xs, BandwidthRule::Silverman), expected,
                1e-12);
}

TEST(Bandwidth, PositiveForDegenerateSample)
{
    std::vector<double> xs(20, 5.0);
    EXPECT_GT(kdeBandwidth(xs, BandwidthRule::Silverman), 0.0);
    EXPECT_GT(kdeBandwidth(xs, BandwidthRule::Scott), 0.0);
}

TEST(Kde, DensityIntegratesToOne)
{
    Xoshiro256 gen(2);
    NormalSampler sampler(10.0, 1.5);
    Kde kde(sampler.sampleMany(gen, 800));
    auto grid = kde.evaluateGrid(512);
    double integral = 0.0;
    for (size_t i = 1; i < grid.x.size(); ++i) {
        integral += 0.5 * (grid.density[i] + grid.density[i - 1]) *
                    (grid.x[i] - grid.x[i - 1]);
    }
    EXPECT_NEAR(integral, 1.0, 0.01);
}

TEST(Kde, PeaksNearTrueMean)
{
    Xoshiro256 gen(3);
    NormalSampler sampler(5.0, 1.0);
    Kde kde(sampler.sampleMany(gen, 2000));
    auto grid = kde.evaluateGrid(512);
    size_t argmax = 0;
    for (size_t i = 1; i < grid.density.size(); ++i) {
        if (grid.density[i] > grid.density[argmax])
            argmax = i;
    }
    EXPECT_NEAR(grid.x[argmax], 5.0, 0.3);
}

TEST(Kde, WindowedEvaluationMatchesFullSum)
{
    // The 8-bandwidth window optimization must not change results
    // beyond numerical noise.
    Xoshiro256 gen(4);
    UniformSampler sampler(0.0, 100.0);
    auto xs = sampler.sampleMany(gen, 500);
    Kde kde(xs, 0.5); // narrow bandwidth: window matters
    double x0 = 50.0;
    double brute = 0.0;
    double norm = 1.0 / (500.0 * 0.5 * std::sqrt(2.0 * M_PI));
    for (double v : xs) {
        double z = (x0 - v) / 0.5;
        brute += std::exp(-0.5 * z * z);
    }
    EXPECT_NEAR(kde(x0), norm * brute, 1e-9);
}

TEST(FindModes, UnimodalNormal)
{
    Xoshiro256 gen(5);
    NormalSampler sampler(10.0, 1.0);
    auto modes = findModes(sampler.sampleMany(gen, 2000), 0.15);
    EXPECT_EQ(modes.size(), 1u);
    EXPECT_NEAR(modes[0].location, 10.0, 0.3);
    EXPECT_NEAR(modes[0].mass, 1.0, 1e-9);
}

TEST(FindModes, BimodalSeparated)
{
    auto xs = mixtureSample({{0.0, 0.6}, {6.0, 0.4}}, 0.5, 3000, 6);
    auto modes = findModes(xs, 0.15);
    ASSERT_EQ(modes.size(), 2u);
    EXPECT_NEAR(modes[0].location, 0.0, 0.4);
    EXPECT_NEAR(modes[1].location, 6.0, 0.4);
    // Masses track the mixture weights.
    EXPECT_NEAR(modes[0].mass, 0.6, 0.07);
    EXPECT_NEAR(modes[1].mass, 0.4, 0.07);
}

TEST(FindModes, TrimodalSeparated)
{
    auto xs = mixtureSample({{0.0, 0.4}, {5.0, 0.35}, {10.0, 0.25}}, 0.4,
                            4000, 7);
    EXPECT_EQ(findModes(xs, 0.15).size(), 3u);
}

TEST(FindModes, MassesSumToOne)
{
    auto xs = mixtureSample({{0.0, 0.5}, {8.0, 0.5}}, 0.6, 2000, 8);
    auto modes = findModes(xs, 0.1);
    double total = 0.0;
    for (const auto &mode : modes)
        total += mode.mass;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(FindModes, ProminenceFiltersMinorWiggles)
{
    // A tiny satellite bump below the prominence threshold is ignored.
    auto xs = mixtureSample({{0.0, 0.97}, {6.0, 0.03}}, 0.5, 4000, 9);
    auto strict = findModes(xs, 0.30);
    EXPECT_EQ(strict.size(), 1u);
    auto lax = findModes(xs, 0.01);
    EXPECT_GE(lax.size(), 2u);
}

TEST(FindModes, DegenerateSampleSinglePointMass)
{
    std::vector<double> xs(50, 4.2);
    auto modes = findModes(xs);
    ASSERT_EQ(modes.size(), 1u);
    EXPECT_DOUBLE_EQ(modes[0].location, 4.2);
    EXPECT_DOUBLE_EQ(modes[0].mass, 1.0);
}

TEST(FindModes, RejectsBadArguments)
{
    EXPECT_THROW(findModes({}, 0.1), std::invalid_argument);
    EXPECT_THROW(findModes({1.0, 2.0}, 0.0), std::invalid_argument);
    EXPECT_THROW(findModes({1.0, 2.0}, 1.0), std::invalid_argument);
}

} // anonymous namespace
