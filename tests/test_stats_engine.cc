/**
 * @file
 * Exactness and work-bound tests for the incremental statistics engine
 * (core::StatsCache).
 *
 * The engine's contract is bit-for-bit equality with the batch
 * recomputations in src/stats — that is what keeps the calibration
 * baseline byte-identical. These tests compare raw double bits (not
 * EXPECT_DOUBLE_EQ, which would mask one-ulp drift), across appends,
 * duplicates, constant data, and NaNs, and pin the deterministic work
 * counters that stand in for wall-clock sub-linearity. Series grow
 * past core::kStatsCacheCutover, so the checked reads exercise the
 * incremental structures; the SizeCutover* tests cover the batch
 * branch below it and the handoff between the two.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/sample_series.hh"
#include "core/stats_cache.hh"
#include "rng/sampler.hh"
#include "rng/xoshiro.hh"
#include "simd/kernels.hh"
#include "stats/ci.hh"
#include "stats/descriptive.hh"
#include "stats/ecdf.hh"

namespace
{

using sharp::core::SampleSeries;
using sharp::core::StatsEngineCounters;
namespace stats = sharp::stats;

constexpr size_t kCutover = sharp::core::kStatsCacheCutover;

/** Bitwise double equality: NaN == NaN, -0.0 != 0.0, no ulp slack. */
::testing::AssertionResult
bitEqual(double a, double b)
{
    if (std::memcmp(&a, &b, sizeof(double)) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " and " << b << " differ in bits";
}

std::vector<double>
lognormalDraws(uint64_t seed, size_t n)
{
    sharp::rng::Xoshiro256 gen(seed);
    sharp::rng::LogNormalSampler sampler(1.0, 0.7);
    return sampler.sampleMany(gen, n);
}

TEST(StatsEngine, SortedViewMatchesStdSortAcrossAppends)
{
    auto xs = lognormalDraws(1, 700);
    SampleSeries s;
    std::vector<double> reference;
    for (size_t i = 0; i < xs.size(); ++i) {
        s.append(xs[i]);
        // Read the sorted view at irregular points, including right
        // after the first append and around tail-merge boundaries.
        if (i % 63 == 0 || i + 1 == xs.size()) {
            reference.assign(xs.begin(),
                             xs.begin() + static_cast<long>(i + 1));
            std::sort(reference.begin(), reference.end());
            ASSERT_EQ(s.stats().sorted(), reference) << "at n=" << i + 1;
        }
    }
}

TEST(StatsEngine, OrderStatAgreesWithSortedWithoutMerging)
{
    auto xs = lognormalDraws(2, 500);
    SampleSeries s;
    for (size_t i = 0; i < xs.size(); ++i) {
        s.append(xs[i]);
        if (i % 41 != 0)
            continue;
        // Query order statistics while the tail is unmerged; the
        // two-runs search must agree with the fully merged array.
        size_t n = i + 1;
        std::vector<double> sorted(xs.begin(),
                                   xs.begin() + static_cast<long>(n));
        std::sort(sorted.begin(), sorted.end());
        for (size_t k : {size_t{0}, n / 3, n / 2, n - 1})
            EXPECT_TRUE(bitEqual(s.stats().orderStat(k), sorted[k]))
                << "n=" << n << " k=" << k;
    }
    EXPECT_THROW(s.stats().orderStat(xs.size()), std::out_of_range);
}

TEST(StatsEngine, QuantileBitEqualToBatch)
{
    auto xs = lognormalDraws(3, 321);
    SampleSeries s;
    for (double v : xs)
        s.append(v);
    for (double p : {0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0}) {
        std::vector<double> copy = xs;
        EXPECT_TRUE(
            bitEqual(s.stats().quantile(p), stats::quantile(copy, p)))
            << "p=" << p;
    }
}

TEST(StatsEngine, KsHalvesBitEqualToBatchAtEverySize)
{
    auto xs = lognormalDraws(4, 400);
    SampleSeries s;
    for (size_t i = 0; i < xs.size(); ++i) {
        s.append(xs[i]);
        if (i < 1)
            continue;
        double batch = stats::ksStatistic(s.firstHalf(), s.secondHalf());
        EXPECT_TRUE(bitEqual(s.stats().ksHalves(), batch))
            << "n=" << i + 1;
    }
}

TEST(StatsEngine, KsHalvesHandlesDuplicateHeavyData)
{
    // Discrete data exercises the tie-group logic in the sorted walk
    // and ambiguous boundary migration between the half runs.
    sharp::rng::Xoshiro256 gen(5);
    SampleSeries s;
    for (size_t i = 0; i < 300; ++i) {
        s.append(static_cast<double>(gen.next() % 7));
        if (i < 1)
            continue;
        double batch = stats::ksStatistic(s.firstHalf(), s.secondHalf());
        ASSERT_TRUE(bitEqual(s.stats().ksHalves(), batch))
            << "n=" << i + 1;
    }
}

TEST(StatsEngine, ConstantSeriesIsExactEverywhere)
{
    SampleSeries s;
    for (size_t i = 0; i < kCutover + 64; ++i)
        s.append(3.25);
    EXPECT_TRUE(bitEqual(s.stats().ksHalves(), 0.0));
    EXPECT_TRUE(bitEqual(s.stats().quantile(0.5), 3.25));
    EXPECT_TRUE(bitEqual(s.stats().mean(), 3.25));
    auto ci = s.stats().medianCi(0.95);
    auto batch = stats::medianCi(s.values(), 0.95);
    EXPECT_TRUE(bitEqual(ci.lower, batch.lower));
    EXPECT_TRUE(bitEqual(ci.upper, batch.upper));
}

TEST(StatsEngine, NansOrderLastDeterministically)
{
    // std::sort on raw NaN data is undefined behavior; the engine's
    // comparator is a strict weak ordering that places NaNs last, so
    // the sorted view is still deterministic — through the tail
    // inserts and merges of the incremental view as well.
    double nan = std::numeric_limits<double>::quiet_NaN();
    auto xs = lognormalDraws(16, kCutover + 100);
    for (size_t i : {size_t{0}, size_t{3}, kCutover / 2, kCutover + 1,
                     xs.size() - 1})
        xs[i] = nan;
    SampleSeries s;
    for (double v : xs)
        s.append(v);
    std::vector<double> finite;
    for (double v : xs) {
        if (!std::isnan(v))
            finite.push_back(v);
    }
    std::sort(finite.begin(), finite.end());

    const auto &sorted = s.stats().sorted();
    ASSERT_EQ(sorted.size(), xs.size());
    for (size_t i = 0; i < finite.size(); ++i)
        ASSERT_TRUE(bitEqual(sorted[i], finite[i])) << "i=" << i;
    for (size_t i = finite.size(); i < sorted.size(); ++i)
        EXPECT_TRUE(std::isnan(sorted[i])) << "i=" << i;
}

TEST(StatsEngine, PrefixRangeMatchesArrivalOrderScan)
{
    auto xs = lognormalDraws(6, kCutover + 100);
    SampleSeries s;
    for (double v : xs)
        s.append(v);
    for (size_t count :
         {size_t{1}, size_t{7}, size_t{128}, kCutover + 1, xs.size()}) {
        double lo = xs[0], hi = xs[0];
        for (size_t i = 1; i < count; ++i) {
            lo = std::min(lo, xs[i]);
            hi = std::max(hi, xs[i]);
        }
        auto [cl, ch] = s.stats().prefixRange(count);
        EXPECT_TRUE(bitEqual(cl, lo)) << "count=" << count;
        EXPECT_TRUE(bitEqual(ch, hi)) << "count=" << count;
    }
    EXPECT_THROW(s.stats().prefixRange(0), std::out_of_range);
    EXPECT_THROW(s.stats().prefixRange(xs.size() + 1), std::out_of_range);
}

TEST(StatsEngine, MeanAndCisBitEqualToBatch)
{
    auto xs = lognormalDraws(7, 333);
    SampleSeries s;
    for (size_t i = 0; i < xs.size(); ++i) {
        s.append(xs[i]);
        if (i % 47 != 0 || i < 2)
            continue;
        std::vector<double> prefix(xs.begin(),
                                   xs.begin() + static_cast<long>(i + 1));
        EXPECT_TRUE(bitEqual(s.stats().mean(), stats::mean(prefix)));
        auto ci = s.stats().meanCi(0.95);
        auto batch = stats::meanCi(prefix, 0.95);
        EXPECT_TRUE(bitEqual(ci.lower, batch.lower)) << "n=" << i + 1;
        EXPECT_TRUE(bitEqual(ci.upper, batch.upper)) << "n=" << i + 1;
        auto rt = s.stats().meanCiRightTailed(0.95);
        auto rtb = stats::meanCiRightTailed(prefix, 0.95);
        EXPECT_TRUE(bitEqual(rt.lower, rtb.lower)) << "n=" << i + 1;
        EXPECT_TRUE(bitEqual(rt.upper, rtb.upper)) << "n=" << i + 1;
    }
}

TEST(StatsEngine, WarmMedianCiTracksBatchAcrossGrowth)
{
    // The warm-started k search must pick the batch scan's k at every
    // size: the batch branch up to the cutover (the n<6 closed form
    // included), the cold scan on the first read past it, and warm
    // up/down walks as coverage shifts.
    auto xs = lognormalDraws(8, kCutover + 450);
    SampleSeries s;
    for (size_t i = 0; i < xs.size(); ++i) {
        s.append(xs[i]);
        std::vector<double> prefix(xs.begin(),
                                   xs.begin() + static_cast<long>(i + 1));
        for (double level : {0.90, 0.95}) {
            auto warm = s.stats().medianCi(level);
            auto batch = stats::medianCi(prefix, level);
            ASSERT_TRUE(bitEqual(warm.lower, batch.lower))
                << "n=" << i + 1 << " level=" << level;
            ASSERT_TRUE(bitEqual(warm.upper, batch.upper))
                << "n=" << i + 1 << " level=" << level;
            ASSERT_TRUE(bitEqual(warm.level, batch.level))
                << "n=" << i + 1 << " level=" << level;
        }
    }
}

TEST(StatsEngine, QuantileCiBitEqualToBatch)
{
    auto xs = lognormalDraws(9, kCutover + 300);
    SampleSeries s;
    for (size_t i = 0; i < xs.size(); ++i) {
        s.append(xs[i]);
        if (i % 29 != 0 || i < kCutover)
            continue;
        std::vector<double> prefix(xs.begin(),
                                   xs.begin() + static_cast<long>(i + 1));
        auto ci = s.stats().quantileCi(0.95, 0.95);
        auto batch = stats::quantileCi(prefix, 0.95, 0.95);
        ASSERT_TRUE(bitEqual(ci.lower, batch.lower)) << "n=" << i + 1;
        ASSERT_TRUE(bitEqual(ci.upper, batch.upper)) << "n=" << i + 1;
    }
}

TEST(StatsEngine, KillSwitchPreservesValuesBitForBit)
{
    // One sample past the cutover, the first incremental read must
    // equal the src/stats recomputation the engine replaced.
    auto xs = lognormalDraws(10, kCutover + 1);
    SampleSeries s;
    for (double v : xs)
        s.append(v);
    auto med = s.stats().medianCi(0.95);
    auto med_batch = stats::medianCi(xs, 0.95);
    EXPECT_TRUE(bitEqual(s.stats().ksHalves(),
                         stats::ksStatistic(s.firstHalf(),
                                            s.secondHalf())));
    EXPECT_TRUE(bitEqual(med.lower, med_batch.lower));
    EXPECT_TRUE(bitEqual(med.upper, med_batch.upper));
    EXPECT_TRUE(bitEqual(s.stats().quantile(0.75),
                         stats::quantile(xs, 0.75)));
}

TEST(StatsEngine, MemoizedReadsDoNoWork)
{
    auto xs = lognormalDraws(11, 1000);
    SampleSeries s;
    for (double v : xs)
        s.append(v);
    s.stats().ksHalves();
    StatsEngineCounters before = s.stats().counters();
    s.stats().ksHalves(); // same version: memo hit
    s.stats().ksHalves();
    StatsEngineCounters delta = s.stats().counters() - before;
    EXPECT_EQ(delta.total(), 0u);
}

TEST(StatsEngine, StructuralWorkPerAppendIsSubLinear)
{
    // The deterministic stand-in for the wall-clock claim: per
    // append-and-read, the engine's work must not grow linearly with
    // n. A batch recomputation re-sorts (at least n log n comparisons)
    // and re-scans the median coverage from n/2; the engine's
    // amortized count stays polylogarithmic plus the occasional merge.
    auto work_per_eval = [](size_t n) {
        auto xs = lognormalDraws(12, n + 64);
        SampleSeries s;
        for (size_t i = 0; i < n; ++i)
            s.append(xs[i]);
        s.stats().ksHalves();
        s.stats().medianCi(0.95);
        StatsEngineCounters before = s.stats().counters();
        for (size_t i = 0; i < 64; ++i) {
            s.append(xs[n + i]);
            s.stats().ksHalves();
            s.stats().medianCi(0.95);
        }
        StatsEngineCounters delta = s.stats().counters() - before;
        return delta;
    };

    // The bench's sub-linearity gate, over 64 evals at n = 10^4: at
    // most n comparisons and 10 sqrt(n) binomial PMF terms per eval.
    const uint64_t n = 10000;
    StatsEngineCounters incr = work_per_eval(n);
    EXPECT_LE(incr.comparisons, 64 * n);
    EXPECT_LE(incr.pmfEvals, 64 * 10 * 100);

    // And the engine's own work must grow sub-linearly: 10x the data
    // must cost far less than 10x the comparisons per eval.
    StatsEngineCounters small = work_per_eval(1000);
    EXPECT_LT(incr.comparisons, small.comparisons * 5);
}

TEST(StatsEngine, ClearInvalidatesAndRecovers)
{
    SampleSeries s;
    for (double v : lognormalDraws(13, kCutover + 50))
        s.append(v);
    s.stats().sorted();
    s.stats().ksHalves();
    s.clear();
    EXPECT_TRUE(s.empty());
    // Refill past the old size, so a cache that missed the clear would
    // treat the new samples as appends to the old ones.
    auto xs = lognormalDraws(113, kCutover + 80);
    for (double v : xs)
        s.append(v);
    std::vector<double> reference = xs;
    std::sort(reference.begin(), reference.end());
    EXPECT_EQ(s.stats().sorted(), reference);
    EXPECT_TRUE(bitEqual(s.stats().ksHalves(),
                         stats::ksStatistic(s.firstHalf(),
                                            s.secondHalf())));
}

TEST(StatsEngine, CopyAndMoveRebuildCachesSafely)
{
    auto xs = lognormalDraws(14, kCutover + 64);
    SampleSeries a;
    for (double v : xs)
        a.append(v);
    double ks = a.stats().ksHalves();

    SampleSeries copy = a; // cache not copied; rebuilt lazily
    EXPECT_TRUE(bitEqual(copy.stats().ksHalves(), ks));
    copy.append(1.0);
    EXPECT_TRUE(bitEqual(a.stats().ksHalves(), ks)); // original intact

    SampleSeries moved = std::move(copy);
    EXPECT_EQ(moved.size(), xs.size() + 1);
    double moved_ks = moved.stats().ksHalves();
    double batch =
        stats::ksStatistic(moved.firstHalf(), moved.secondHalf());
    EXPECT_TRUE(bitEqual(moved_ks, batch));

    SampleSeries assigned;
    for (double v : lognormalDraws(114, kCutover + 8))
        assigned.append(v);
    assigned.stats().sorted();
    assigned = a;
    EXPECT_TRUE(bitEqual(assigned.stats().ksHalves(), ks));
}

TEST(StatsEngine, VersionBumpsOnAppendAndClear)
{
    SampleSeries s;
    uint64_t v0 = s.version();
    s.append(1.0);
    EXPECT_GT(s.version(), v0);
    uint64_t v1 = s.version();
    s.clear();
    EXPECT_GT(s.version(), v1);
}

TEST(StatsEngine, FastKsWalkMatchesReferenceOnAdversarialData)
{
    // The integer-guarded sorted walk must reproduce the reference
    // double walk bit for bit, including tie groups that span both
    // samples and one side exhausting mid-group.
    sharp::rng::Xoshiro256 gen(15);
    for (int trial = 0; trial < 200; ++trial) {
        size_t na = 1 + gen.next() % 40;
        size_t nb = 1 + gen.next() % 40;
        std::vector<double> a(na), b(nb);
        uint64_t radix = 1 + trial % 9;
        for (auto &v : a)
            v = static_cast<double>(gen.next() % radix);
        for (auto &v : b)
            v = static_cast<double>(gen.next() % radix);
        if (trial % 17 == 0)
            std::fill(a.begin(), a.end(), 4.0);
        if (trial % 23 == 0)
            std::fill(b.begin(), b.end(), 4.0);
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        ASSERT_TRUE(bitEqual(stats::ksStatisticSorted(a, b),
                             sharp::simd::detail::ksSortedReferenceScalar(
                                 a.data(), a.size(), b.data(), b.size())))
            << "trial " << trial;
    }
}

TEST(StatsEngine, SizeCutoverRoutesSmallSeriesToBatchExactly)
{
    // At sizes up to the cutover every accessor must run the batch
    // recomputation: values bit-equal to src/stats, and the same work
    // whether the engine has seen the series before or not. Each warm
    // read is repeated after invalidate(); were the incremental path
    // answering, the cold read would re-ingest the whole series and
    // the counters would differ — the small-n no-overhead guarantee
    // the cutover exists for.
    auto xs = lognormalDraws(77, kCutover);
    SampleSeries s;
    auto read = [&s] {
        StatsEngineCounters before = s.stats().counters();
        std::vector<double> values = {
            s.stats().quantile(0.5), s.stats().mean(),
            s.stats().ksHalves(), s.stats().medianCi(0.95).lower};
        return std::make_pair(values, s.stats().counters() - before);
    };
    for (double v : xs) {
        s.append(v);
        if (s.size() % 13 != 0 && s.size() != kCutover)
            continue;
        auto warm = read();
        s.stats().invalidate();
        auto cold = read();
        std::vector<double> batch = {
            stats::quantile(s.values(), 0.5), stats::mean(s.values()),
            stats::ksStatistic(s.firstHalf(), s.secondHalf()),
            stats::medianCi(s.values(), 0.95).lower};
        for (size_t i = 0; i < batch.size(); ++i) {
            EXPECT_TRUE(bitEqual(warm.first[i], batch[i]))
                << "n=" << s.size() << " read " << i;
            EXPECT_TRUE(bitEqual(cold.first[i], batch[i]))
                << "n=" << s.size() << " read " << i;
        }
        EXPECT_EQ(warm.second.comparisons, cold.second.comparisons)
            << "n=" << s.size();
        EXPECT_EQ(warm.second.pmfEvals, cold.second.pmfEvals)
            << "n=" << s.size();
    }
}

TEST(StatsEngine, SizeCutoverCrossingStaysBitExact)
{
    // Grow a series across the cutover. Below it, accessors run
    // batch-style and the incremental structures see nothing; the
    // first access above it must ingest the entire backlog and carry
    // on bit-for-bit — this is the batch-to-incremental handoff.
    auto xs = lognormalDraws(78, kCutover + 100);
    SampleSeries s;
    for (size_t i = 0; i < xs.size(); ++i) {
        s.append(xs[i]);
        std::vector<double> sorted(xs.begin(),
                                   xs.begin() + static_cast<long>(i + 1));
        std::sort(sorted.begin(), sorted.end());
        ASSERT_TRUE(bitEqual(s.stats().quantile(0.75),
                             stats::quantileSorted(sorted, 0.75)))
            << "n=" << i + 1;
        ASSERT_EQ(s.stats().sorted(), sorted) << "n=" << i + 1;
    }
}

} // anonymous namespace
