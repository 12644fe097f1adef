/**
 * @file
 * Parity suite for the SIMD dispatch layer: every backend compiled
 * into this binary and runnable on this CPU must reproduce the scalar
 * reference kernels bit for bit — outputs, supremum statistics, and
 * comparison counts alike — on randomized and adversarial inputs
 * (NaNs, duplicate plateaus, constants, signed zeros, lane-straddling
 * sizes). KS results are checked against the one reference walk,
 * simd::detail::ksSortedReferenceScalar. Also covers the dispatch machinery itself: backend naming,
 * the SHARP_SIMD_BACKEND override, did-you-mean errors, and
 * setActiveBackend() rewiring observed through a real StatsCache.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/sample_series.hh"
#include "core/stats_cache.hh"
#include "simd/dispatch.hh"
#include "simd/kernels.hh"
#include "stats/descriptive.hh"

namespace
{

using sharp::simd::Backend;
using sharp::simd::KernelTable;

/** Bitwise equality: distinguishes -0.0 from 0.0 and accepts NaN==NaN. */
bool
sameBits(double a, double b)
{
    uint64_t ba, bb;
    std::memcpy(&ba, &a, sizeof(ba));
    std::memcpy(&bb, &b, sizeof(bb));
    return ba == bb;
}

std::vector<Backend>
runnableBackends()
{
    std::vector<Backend> out;
    for (Backend b : sharp::simd::compiledBackends())
        if (sharp::simd::backendRunnable(b))
            out.push_back(b);
    return out;
}

std::vector<Backend>
runnableVectorBackends()
{
    std::vector<Backend> out;
    for (Backend b : runnableBackends())
        if (b != Backend::Scalar)
            out.push_back(b);
    return out;
}

/** Sizes straddling the lane widths (2, 4) and their multiples. */
const size_t kSizes[] = {0,  1,  2,  3,  4,  5,  7,  8,   9,
                         15, 16, 17, 31, 63, 64, 65, 255, 1000};

std::vector<double>
sortedRandom(std::mt19937_64 &rng, size_t n, int dup_bias)
{
    // dup_bias narrows the value alphabet so runs/plateaus appear:
    // 0 = continuous, larger = heavier duplication.
    std::vector<double> v(n);
    if (dup_bias == 0) {
        std::normal_distribution<double> d(0.0, 1.0);
        for (double &x : v)
            x = d(rng);
    } else {
        std::uniform_int_distribution<int> d(0, dup_bias);
        for (double &x : v)
            x = static_cast<double>(d(rng));
    }
    std::sort(v.begin(), v.end());
    return v;
}

struct MergeResult
{
    std::vector<double> out;
    uint64_t comparisons;
};

MergeResult
runMerge(const KernelTable &table, const std::vector<double> &a,
         const std::vector<double> &b)
{
    MergeResult r;
    r.out.resize(a.size() + b.size());
    r.comparisons = table.mergeSorted(a.data(), a.size(), b.data(),
                                      b.size(), r.out.data());
    return r;
}

void
expectMergeParity(const KernelTable &vec, const std::vector<double> &a,
                  const std::vector<double> &b, const char *what)
{
    const KernelTable &ref =
        sharp::simd::kernelTable(Backend::Scalar);
    MergeResult want = runMerge(ref, a, b);
    MergeResult got = runMerge(vec, a, b);
    ASSERT_EQ(want.out.size(), got.out.size()) << what;
    for (size_t i = 0; i < want.out.size(); ++i)
        ASSERT_TRUE(sameBits(want.out[i], got.out[i]))
            << what << " diverges at element " << i << ": "
            << want.out[i] << " vs " << got.out[i];
    EXPECT_EQ(want.comparisons, got.comparisons) << what;
}

void
expectKsParity(const KernelTable &vec, const std::vector<double> &a,
               const std::vector<double> &b, const char *what)
{
    if (a.empty() || b.empty())
        return; // KS is undefined on empty samples; callers pre-check.
    // The reference walk is the specification: the scalar fast walk
    // and every vector backend must reproduce it bit for bit.
    double want = sharp::simd::detail::ksSortedReferenceScalar(
        a.data(), a.size(), b.data(), b.size());
    double scalar = sharp::simd::kernelTable(Backend::Scalar)
                        .ksSorted(a.data(), a.size(), b.data(), b.size());
    double got = vec.ksSorted(a.data(), a.size(), b.data(), b.size());
    EXPECT_TRUE(sameBits(want, scalar))
        << what << ": reference " << want << " vs scalar " << scalar;
    EXPECT_TRUE(sameBits(want, got))
        << what << ": reference " << want << " vs vector " << got;
}

void
expectMomentParity(const KernelTable &vec, const std::vector<double> &v,
                   const char *what)
{
    const KernelTable &ref =
        sharp::simd::kernelTable(Backend::Scalar);
    double m = v.empty() ? 0.0 : sharp::stats::mean(v);
    double ss_want = ref.sumSquaredDeviations(v.data(), v.size(), m);
    double ss_got = vec.sumSquaredDeviations(v.data(), v.size(), m);
    EXPECT_TRUE(sameBits(ss_want, ss_got))
        << what << " (sumSquaredDeviations): " << ss_want << " vs "
        << ss_got;
}

class SimdParity : public ::testing::TestWithParam<Backend>
{
};

TEST_P(SimdParity, RandomizedMergeAndKs)
{
    const KernelTable &vec = sharp::simd::kernelTable(GetParam());
    std::mt19937_64 rng(20260809);
    for (size_t na : kSizes) {
        for (size_t nb : {size_t{0}, size_t{1}, size_t{5}, size_t{64},
                          size_t{997}}) {
            for (int dup : {0, 3, 50}) {
                auto a = sortedRandom(rng, na, dup);
                auto b = sortedRandom(rng, nb, dup);
                expectMergeParity(vec, a, b, "randomized merge");
                expectKsParity(vec, a, b, "randomized ks");
            }
        }
    }
}

TEST_P(SimdParity, LargeSizesEngageTheFastPaths)
{
    // The chunked KS walk only engages past 1024 combined elements
    // and the run-batched merge needs long runs to matter; the sizes
    // above mostly exercise edges and fallbacks.
    // These pairs drive the co-rank splits, the interleaved lanes
    // (including mid-tie-group chunk boundaries via dup_bias), and
    // the merge drain with every kind of asymmetry.
    const KernelTable &vec = sharp::simd::kernelTable(GetParam());
    std::mt19937_64 rng(987654321);
    const std::pair<size_t, size_t> shapes[] = {
        {5000, 4999}, {20000, 117}, {117, 20000}, {8192, 8192},
    };
    for (auto [na, nb] : shapes) {
        for (int dup : {0, 7, 200}) {
            auto a = sortedRandom(rng, na, dup);
            auto b = sortedRandom(rng, nb, dup);
            expectMergeParity(vec, a, b, "large merge");
            expectKsParity(vec, a, b, "large ks");
        }
    }
}

TEST_P(SimdParity, AdversarialSeries)
{
    const KernelTable &vec = sharp::simd::kernelTable(GetParam());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<std::vector<double>> cases = {
        {},
        {0.0},
        {-0.0, 0.0, 0.0},
        {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0},
        {-inf, -1.0, 0.0, 1.0, inf},
        {1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0},
        {nan},
        {1.0, 2.0, nan},
        {nan, nan, nan},
    };
    // Sorted with NaNs last, matching what CountingLess-sorted series
    // look like when measurements produce NaN.
    std::vector<double> plateau(100, 7.0);
    plateau.front() = -7.0;
    plateau.back() = 77.0;
    cases.push_back(plateau);
    std::vector<double> zeros(33, 0.0);
    for (size_t i = 0; i < 16; ++i)
        zeros[i] = -0.0;
    cases.push_back(zeros);

    for (const auto &a : cases) {
        for (const auto &b : cases) {
            expectMergeParity(vec, a, b, "adversarial merge");
            bool has_nan = false;
            for (double x : a)
                has_nan |= std::isnan(x);
            for (double x : b)
                has_nan |= std::isnan(x);
            if (!has_nan)
                expectKsParity(vec, a, b, "adversarial ks");
        }
        expectMomentParity(vec, a, "adversarial moments");
    }
}

TEST_P(SimdParity, RandomizedMoments)
{
    const KernelTable &vec = sharp::simd::kernelTable(GetParam());
    std::mt19937_64 rng(42);
    for (size_t n : kSizes) {
        auto v = sortedRandom(rng, n, 0);
        std::shuffle(v.begin(), v.end(), rng);
        expectMomentParity(vec, v, "randomized moments");
    }
}

TEST_P(SimdParity, AsymmetricMergeCounts)
{
    // One long run against a few interleaved points: the regime where
    // the batched walk's memcpy tails and speculative stores matter.
    const KernelTable &vec = sharp::simd::kernelTable(GetParam());
    std::vector<double> big;
    for (size_t i = 0; i < 1000; ++i)
        big.push_back(static_cast<double>(i));
    std::vector<double> small = {-1.0, 250.5, 250.5, 999.5, 2000.0};
    expectMergeParity(vec, big, small, "big-vs-small merge");
    expectMergeParity(vec, small, big, "small-vs-big merge");
    expectKsParity(vec, big, small, "big-vs-small ks");
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SimdParity, ::testing::ValuesIn(runnableVectorBackends()),
    [](const ::testing::TestParamInfo<Backend> &info) {
        return sharp::simd::backendName(info.param);
    });

// An empty instantiation is expected on hosts with no vector unit
// (the scalar backend is the reference, so there is nothing to
// compare); GTest would otherwise fail the suite for it.
GTEST_ALLOW_UNINSTANTIATED_PARAMETERIZED_TEST(SimdParity);

TEST(SimdDispatch, ScalarAlwaysRunnable)
{
    EXPECT_TRUE(sharp::simd::backendCompiled(Backend::Scalar));
    EXPECT_TRUE(sharp::simd::backendRunnable(Backend::Scalar));
    auto compiled = sharp::simd::compiledBackends();
    EXPECT_FALSE(compiled.empty());
    EXPECT_EQ(compiled.back(), Backend::Scalar);
}

TEST(SimdDispatch, NamesRoundTrip)
{
    for (const std::string &name : sharp::simd::knownBackendNames()) {
        Backend b = sharp::simd::parseBackendName(name);
        EXPECT_STREQ(sharp::simd::backendName(b), name.c_str());
    }
}

TEST(SimdDispatch, EnvOverrideIsHonored)
{
    // The harness runs this binary with and without
    // SHARP_SIMD_BACKEND; whatever the environment says must be what
    // the process-wide table resolved to.
    const char *env = std::getenv("SHARP_SIMD_BACKEND");
    EXPECT_EQ(sharp::simd::activeBackend(),
              sharp::simd::resolveBackend(env));
    if (env != nullptr && *env != '\0') {
        EXPECT_STREQ(sharp::simd::activeBackendName(), env);
    }
}

TEST(SimdDispatch, ResolveScalarByName)
{
    EXPECT_EQ(sharp::simd::resolveBackend("scalar"), Backend::Scalar);
}

TEST(SimdDispatch, UnknownBackendSuggests)
{
    try {
        sharp::simd::resolveBackend("sclar");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("unknown SIMD backend 'sclar'"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("did you mean 'scalar'?"),
                  std::string::npos)
            << what;
    }
}

TEST(SimdDispatch, NotRunnableBackendThrows)
{
    for (Backend b : {Backend::Neon, Backend::Avx2}) {
        if (sharp::simd::backendRunnable(b))
            continue;
        EXPECT_THROW(
            sharp::simd::resolveBackend(sharp::simd::backendName(b)),
            std::invalid_argument);
        EXPECT_THROW(sharp::simd::setActiveBackend(b),
                     std::invalid_argument);
    }
}

/**
 * End-to-end rewiring check: a StatsCache driven past its cutover with
 * every runnable backend in turn must report bit-identical statistics
 * and identical work counters. This is the decisions_bitwise_equal
 * property the bench gate asserts, exercised through the real
 * call sites rather than the kernel table.
 */
TEST(SimdDispatch, StatsCacheBitEqualAcrossBackends)
{
    Backend before = sharp::simd::activeBackend();
    struct Observed
    {
        double median, q95, mean, ci_hi, ks;
        uint64_t comparisons;
    };
    std::vector<Observed> runs;
    std::vector<Backend> backends = runnableBackends();
    for (Backend b : backends) {
        sharp::simd::setActiveBackend(b);
        sharp::core::SampleSeries s;
        std::mt19937_64 rng(7);
        std::uniform_int_distribution<int> d(0, 200);
        Observed o{};
        for (int i = 0; i < 5000; ++i) {
            s.append(static_cast<double>(d(rng)) / 8.0);
            if (i % 97 == 3) {
                // Interleave queries so tail merges happen at many
                // different fill levels.
                o.median = s.stats().quantile(0.5);
                o.ks = s.stats().ksHalves();
            }
        }
        o.q95 = s.stats().quantile(0.95);
        o.mean = s.stats().mean();
        o.ci_hi = s.stats().meanCi(0.95).upper;
        o.comparisons = s.stats().counters().comparisons;
        runs.push_back(o);
    }
    sharp::simd::setActiveBackend(before);
    for (size_t i = 1; i < runs.size(); ++i) {
        EXPECT_TRUE(sameBits(runs[0].median, runs[i].median))
            << sharp::simd::backendName(backends[i]);
        EXPECT_TRUE(sameBits(runs[0].q95, runs[i].q95))
            << sharp::simd::backendName(backends[i]);
        EXPECT_TRUE(sameBits(runs[0].mean, runs[i].mean))
            << sharp::simd::backendName(backends[i]);
        EXPECT_TRUE(sameBits(runs[0].ci_hi, runs[i].ci_hi))
            << sharp::simd::backendName(backends[i]);
        EXPECT_TRUE(sameBits(runs[0].ks, runs[i].ks))
            << sharp::simd::backendName(backends[i]);
        EXPECT_EQ(runs[0].comparisons, runs[i].comparisons)
            << sharp::simd::backendName(backends[i]);
    }
}

} // anonymous namespace
