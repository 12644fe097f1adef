/**
 * @file
 * google-benchmark microbenchmarks of the statistical kernels on
 * SHARP's hot paths: the KS statistic (evaluated after every round by
 * the KS stopping rule), KDE mode finding (modality rule +
 * classifier), quantiles, CIs and the median-CI coverage sum,
 * bootstrap and its bounded draw, and histogram construction.
 */

#include <benchmark/benchmark.h>

#include <algorithm>

#include "core/classifier.hh"
#include "rng/sampler.hh"
#include "stats/ci.hh"
#include "stats/descriptive.hh"
#include "stats/ecdf.hh"
#include "stats/histogram.hh"
#include "stats/kde.hh"
#include "stats/similarity.hh"
#include "stats/speedup.hh"

namespace
{

using namespace sharp;

std::vector<double>
bimodalSample(size_t n, uint64_t seed)
{
    rng::Xoshiro256 gen(seed);
    std::vector<rng::MixtureSampler::Component> comps;
    comps.push_back(
        {0.6, std::make_shared<rng::NormalSampler>(10.0, 0.4)});
    comps.push_back(
        {0.4, std::make_shared<rng::NormalSampler>(12.0, 0.5)});
    rng::MixtureSampler mixture(std::move(comps));
    return mixture.sampleMany(gen, n);
}

void
BM_KsStatistic(benchmark::State &state)
{
    size_t n = static_cast<size_t>(state.range(0));
    auto a = bimodalSample(n, 1);
    auto b = bimodalSample(n, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(stats::ksStatistic(a, b));
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_KsStatistic)->Range(64, 16384)->Complexity();

void
BM_Namd(benchmark::State &state)
{
    size_t n = static_cast<size_t>(state.range(0));
    auto a = bimodalSample(n, 3);
    auto b = bimodalSample(n, 4);
    for (auto _ : state)
        benchmark::DoNotOptimize(stats::namd(a, b));
}
BENCHMARK(BM_Namd)->Range(64, 16384);

void
BM_FindModes(benchmark::State &state)
{
    auto xs = bimodalSample(static_cast<size_t>(state.range(0)), 5);
    for (auto _ : state)
        benchmark::DoNotOptimize(stats::findModes(xs, 0.15));
}
BENCHMARK(BM_FindModes)->Range(128, 8192);

void
BM_Quantile(benchmark::State &state)
{
    auto xs = bimodalSample(static_cast<size_t>(state.range(0)), 6);
    for (auto _ : state)
        benchmark::DoNotOptimize(stats::quantile(xs, 0.95));
}
BENCHMARK(BM_Quantile)->Range(64, 16384);

void
BM_SummaryCompute(benchmark::State &state)
{
    auto xs = bimodalSample(static_cast<size_t>(state.range(0)), 7);
    for (auto _ : state)
        benchmark::DoNotOptimize(stats::Summary::compute(xs));
}
BENCHMARK(BM_SummaryCompute)->Range(64, 16384);

void
BM_MeanCi(benchmark::State &state)
{
    auto xs = bimodalSample(static_cast<size_t>(state.range(0)), 8);
    for (auto _ : state)
        benchmark::DoNotOptimize(stats::meanCiRightTailed(xs, 0.95));
}
BENCHMARK(BM_MeanCi)->Range(64, 16384);

/**
 * One median-CI coverage sum, the term the warm walk re-reads each
 * round: n at the 0.95 walk's k, about 2 z sqrt(n) PMF terms.
 */
void
BM_MedianOrderCoverage(benchmark::State &state)
{
    size_t n = static_cast<size_t>(state.range(0));
    size_t k = stats::medianCiLowerK(n, 0.95);
    for (auto _ : state)
        benchmark::DoNotOptimize(stats::medianOrderCoverage(n, k));
}
BENCHMARK(BM_MedianOrderCoverage)->Arg(1000)->Arg(10000)->Arg(100000);

/**
 * The bootstrap `sharp compare` runs: the median-ratio CI over two
 * sorted samples, as a tidy-CSV scenario reaches it. Arguments:
 * resamples, then the size of each sample.
 */
void
BM_Bootstrap(benchmark::State &state)
{
    size_t n = static_cast<size_t>(state.range(1));
    auto baseline = bimodalSample(n, 9);
    auto candidate = bimodalSample(n, 10);
    std::sort(baseline.begin(), baseline.end());
    std::sort(candidate.begin(), candidate.end());
    rng::Xoshiro256 gen(10);
    for (auto _ : state) {
        benchmark::DoNotOptimize(stats::speedupOfMedians(
            baseline, candidate, 0.95,
            static_cast<size_t>(state.range(0)), gen));
    }
}
BENCHMARK(BM_Bootstrap)
    ->ArgsProduct({benchmark::CreateRange(100, 1600, 4), {1000, 10000}});

/** One bounded draw, the bootstrap's inner step, at a 10^3 bound. */
void
BM_NextBelow(benchmark::State &state)
{
    rng::Xoshiro256 gen(11);
    uint64_t bound = static_cast<uint64_t>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.nextBelow(bound));
}
BENCHMARK(BM_NextBelow)->Arg(1000);

void
BM_HistogramBuild(benchmark::State &state)
{
    auto xs = bimodalSample(static_cast<size_t>(state.range(0)), 11);
    for (auto _ : state) {
        benchmark::DoNotOptimize(stats::Histogram::build(
            xs, stats::BinRule::SturgesFdMin));
    }
}
BENCHMARK(BM_HistogramBuild)->Range(256, 16384);

void
BM_Classify(benchmark::State &state)
{
    auto xs = bimodalSample(static_cast<size_t>(state.range(0)), 12);
    for (auto _ : state)
        benchmark::DoNotOptimize(core::classifyDistribution(xs));
}
BENCHMARK(BM_Classify)->Range(128, 4096);

void
BM_Wasserstein(benchmark::State &state)
{
    size_t n = static_cast<size_t>(state.range(0));
    auto a = bimodalSample(n, 13);
    auto b = bimodalSample(n, 14);
    for (auto _ : state)
        benchmark::DoNotOptimize(stats::wasserstein1(a, b));
}
BENCHMARK(BM_Wasserstein)->Range(64, 16384);

} // anonymous namespace

BENCHMARK_MAIN();
