/**
 * @file
 * Tests for SampleSeries: streaming aggregates must match batch
 * recomputation exactly (up to FP noise), and the half/tail views the
 * KS rule relies on must slice correctly.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>

#include "core/sample_series.hh"
#include "rng/sampler.hh"
#include "stats/descriptive.hh"

namespace
{

using sharp::core::SampleSeries;
namespace stats = sharp::stats;

/** A series holding @p values, appended in order. */
SampleSeries
seriesOf(std::initializer_list<double> values)
{
    SampleSeries s;
    for (double v : values)
        s.append(v);
    return s;
}

TEST(SampleSeries, EmptyStateIsSane)
{
    SampleSeries s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.size(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(SampleSeries, StreamingMomentsMatchBatch)
{
    sharp::rng::Xoshiro256 gen(1);
    sharp::rng::LogNormalSampler sampler(1.0, 0.7);
    auto xs = sampler.sampleMany(gen, 5000);

    SampleSeries s;
    for (double v : xs)
        s.append(v);

    EXPECT_NEAR(s.mean(), stats::mean(xs), 1e-9);
    EXPECT_NEAR(s.variance(), stats::variance(xs), 1e-7);
    EXPECT_NEAR(s.stddev(), stats::stddev(xs), 1e-8);
    EXPECT_DOUBLE_EQ(s.min(), *std::min_element(xs.begin(), xs.end()));
    EXPECT_DOUBLE_EQ(s.max(), *std::max_element(xs.begin(), xs.end()));
}

TEST(SampleSeries, SingleSample)
{
    SampleSeries s;
    s.append(4.2);
    EXPECT_DOUBLE_EQ(s.mean(), 4.2);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 4.2);
    EXPECT_DOUBLE_EQ(s.max(), 4.2);
}

TEST(SampleSeries, HalvesSplitInArrivalOrder)
{
    SampleSeries s = seriesOf({1.0, 2.0, 3.0, 4.0, 5.0});
    auto first = s.firstHalf();
    auto second = s.secondHalf();
    ASSERT_EQ(first.size(), 2u);
    ASSERT_EQ(second.size(), 3u);
    EXPECT_DOUBLE_EQ(first[0], 1.0);
    EXPECT_DOUBLE_EQ(first[1], 2.0);
    EXPECT_DOUBLE_EQ(second[0], 3.0);
    EXPECT_DOUBLE_EQ(second[2], 5.0);
}

TEST(SampleSeries, TailReturnsLastN)
{
    SampleSeries s = seriesOf({1.0, 2.0, 3.0, 4.0});
    auto t = s.tail(2);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_DOUBLE_EQ(t[0], 3.0);
    EXPECT_DOUBLE_EQ(t[1], 4.0);
    EXPECT_EQ(s.tail(10).size(), 4u);
}

TEST(SampleSeries, ClearResetsEverything)
{
    SampleSeries s = seriesOf({5.0, 6.0});
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    s.append(1.0);
    EXPECT_DOUBLE_EQ(s.mean(), 1.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
}

TEST(SampleSeries, IndexAccessInArrivalOrder)
{
    SampleSeries s = seriesOf({9.0, 7.0, 8.0});
    EXPECT_DOUBLE_EQ(s[0], 9.0);
    EXPECT_DOUBLE_EQ(s[2], 8.0);
    EXPECT_EQ(s.values().size(), 3u);
}

TEST(SampleSeries, AppendAllAccumulates)
{
    SampleSeries s;
    s.appendAll({1.0, 2.0});
    s.appendAll({3.0});
    EXPECT_EQ(s.size(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

TEST(SampleSeries, NegativeAndMixedValues)
{
    SampleSeries s = seriesOf({-5.0, 0.0, 5.0});
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), -5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_NEAR(s.variance(), 25.0, 1e-12);
}

TEST(SampleSeries, StreamingSkewnessTracksBatch)
{
    // The series keeps no higher moments of its own: its skewness and
    // kurtosis are the batch statistics, so they agree bit for bit as
    // the series grows.
    sharp::rng::Xoshiro256 gen(41);
    sharp::rng::LogNormalSampler sampler(0.0, 0.9);
    SampleSeries s;
    std::vector<double> xs;
    for (size_t i = 0; i < 2000; ++i) {
        double v = sampler.sample(gen);
        s.append(v);
        xs.push_back(v);
        if (i == 99 || i == 999 || i == 1999) {
            EXPECT_EQ(s.skewness(), stats::skewness(xs)) << "n=" << i + 1;
        }
    }
}

TEST(SampleSeries, StreamingKurtosisTracksBatch)
{
    sharp::rng::Xoshiro256 gen(43);
    sharp::rng::NormalSampler sampler(5.0, 2.0);
    SampleSeries s;
    std::vector<double> xs;
    for (size_t i = 0; i < 2000; ++i) {
        double v = sampler.sample(gen);
        s.append(v);
        xs.push_back(v);
        if (i == 99 || i == 999 || i == 1999) {
            EXPECT_EQ(s.excessKurtosis(), stats::excessKurtosis(xs))
                << "n=" << i + 1;
        }
    }
}

TEST(SampleSeries, HigherMomentsDegenerateCases)
{
    SampleSeries tiny = seriesOf({1.0, 2.0});
    EXPECT_DOUBLE_EQ(tiny.skewness(), 0.0); // n < 3
    SampleSeries three = seriesOf({1.0, 2.0, 3.0});
    EXPECT_DOUBLE_EQ(three.excessKurtosis(), 0.0); // n < 4
    SampleSeries flat = seriesOf({4.0, 4.0, 4.0, 4.0, 4.0});
    EXPECT_DOUBLE_EQ(flat.skewness(), 0.0); // zero variance
    EXPECT_DOUBLE_EQ(flat.excessKurtosis(), 0.0);
}

TEST(SampleSeries, VersionAdvancesOnEveryMutation)
{
    SampleSeries s;
    uint64_t v = s.version();
    s.append(1.0);
    ASSERT_GT(s.version(), v);
    v = s.version();
    s.appendAll({2.0, 3.0});
    ASSERT_GT(s.version(), v);
    v = s.version();
    s.clear();
    EXPECT_GT(s.version(), v);
}

} // anonymous namespace
