/**
 * @file
 * Tests for SimulatedWorkload — the generative model that substitutes
 * for the paper's hardware testbed. The properties verified here are
 * exactly the phenomena the evaluation depends on: determinism,
 * stable means across days with shifting shapes (Fig. 5), per-
 * benchmark H100 speedups (Figs. 8/9), and plausible modality.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/machine.hh"
#include "sim/rodinia.hh"
#include "sim/workload.hh"
#include "stats/descriptive.hh"
#include "stats/ecdf.hh"
#include "stats/kde.hh"

namespace
{

using namespace sharp::sim;
namespace stats = sharp::stats;

const MachineSpec &m1 = machineById("machine1");
const MachineSpec &m2 = machineById("machine2");
const MachineSpec &m3 = machineById("machine3");

TEST(Workload, DeterministicGivenSeed)
{
    const auto &bench = rodiniaByName("hotspot");
    SimulatedWorkload a(bench, m1, 0, 42);
    SimulatedWorkload b(bench, m1, 0, 42);
    for (int i = 0; i < 200; ++i)
        EXPECT_DOUBLE_EQ(a.sample(), b.sample());
}

TEST(Workload, DifferentSeedsDiffer)
{
    const auto &bench = rodiniaByName("hotspot");
    SimulatedWorkload a(bench, m1, 0, 1);
    SimulatedWorkload b(bench, m1, 0, 2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.sample() == b.sample();
    EXPECT_LT(same, 5);
}

TEST(Workload, SamplesArePositiveAndBounded)
{
    for (const auto &bench : rodiniaRegistry()) {
        if (bench.kind == BenchmarkKind::Cuda)
            continue;
        SimulatedWorkload w(bench, m1, 0, 7);
        auto xs = w.sampleMany(500);
        for (double x : xs) {
            ASSERT_GT(x, 0.0) << bench.name;
            ASSERT_LT(x, bench.baseSeconds * 10.0) << bench.name;
        }
    }
}

TEST(Workload, CudaOnGpulessMachineThrows)
{
    const auto &bench = rodiniaByName("bfs-CUDA");
    EXPECT_THROW(SimulatedWorkload(bench, m2, 0, 1),
                 std::invalid_argument);
    EXPECT_THROW(machineSpeedup(bench, m2), std::invalid_argument);
}

TEST(Workload, CpuBenchmarksRunEverywhere)
{
    const auto &bench = rodiniaByName("bfs");
    EXPECT_NO_THROW(SimulatedWorkload(bench, m2, 0, 1));
}

TEST(Workload, MeanStaysComparableAcrossDays)
{
    // The day model recenters multipliers so the mixture mean is
    // stable — the precondition for the paper's "NAMD says similar,
    // KS says different" finding.
    const auto &bench = rodiniaByName("hotspot");
    std::vector<double> day_means;
    for (int day = 0; day < 5; ++day) {
        SimulatedWorkload w(bench, m2, day, 3);
        day_means.push_back(stats::mean(w.sampleMany(2000)));
    }
    double lo = *std::min_element(day_means.begin(), day_means.end());
    double hi = *std::max_element(day_means.begin(), day_means.end());
    // Means within ~8% of each other across days.
    EXPECT_LT((hi - lo) / lo, 0.08);
}

TEST(Workload, ShapeShiftsAcrossDaysMoreThanWithinADay)
{
    // KS between two same-day streams is small; between different days
    // it is often much larger (drift + mode churn).
    const auto &bench = rodiniaByName("hotspot");
    double max_cross = 0.0;
    SimulatedWorkload same_a(bench, m2, 0, 100);
    SimulatedWorkload same_b(bench, m2, 0, 200);
    double within = stats::ksStatistic(same_a.sampleMany(1500),
                                      same_b.sampleMany(1500));
    for (int day = 1; day < 5; ++day) {
        SimulatedWorkload other(bench, m2, day, 300);
        SimulatedWorkload base(bench, m2, 0, 400);
        max_cross = std::max(
            max_cross, stats::ksStatistic(base.sampleMany(1500),
                                         other.sampleMany(1500)));
    }
    EXPECT_LT(within, 0.06);
    EXPECT_GT(max_cross, 2.0 * within);
}

TEST(Workload, MachineSpeedupCpuFollowsCpuFactor)
{
    const auto &bench = rodiniaByName("lud");
    EXPECT_DOUBLE_EQ(machineSpeedup(bench, m1), 1.0);
    EXPECT_NEAR(machineSpeedup(bench, m3), 1.15, 1e-12);
}

TEST(Workload, H100SpeedupsMatchFigures8And9)
{
    // bfs-CUDA ~2x (Fig. 8), srad-CUDA ~1.2x (Fig. 9).
    auto measure = [](const char *name) {
        const auto &bench = rodiniaByName(name);
        SimulatedWorkload a100(bench, m1, 0, 11);
        SimulatedWorkload h100(bench, m3, 0, 11);
        return stats::mean(a100.sampleMany(3000)) /
               stats::mean(h100.sampleMany(3000));
    };
    EXPECT_NEAR(measure("bfs-CUDA"), 2.0, 0.15);
    EXPECT_NEAR(measure("srad-CUDA"), 1.2, 0.1);
}

TEST(Workload, AllCudaSpeedupsWithinPaperRange)
{
    // §I Q2: H100 consistently faster, 1.2x to 2x.
    for (const auto &bench : rodiniaCudaBenchmarks()) {
        double speedup =
            machineSpeedup(bench, m3) / machineSpeedup(bench, m1);
        EXPECT_GE(speedup, 1.15) << bench.name;
        EXPECT_LE(speedup, 2.1) << bench.name;
    }
}

TEST(Workload, ModalityIsVisibleInLargeSamples)
{
    // A trimodal benchmark model yields >= 2 KDE modes on most days
    // (a day may legitimately drop one mode).
    const auto &bench = rodiniaByName("srad");
    SimulatedWorkload w(bench, m1, 0, 5);
    size_t modes = stats::findModes(w.sampleMany(4000), 0.1).size();
    EXPECT_GE(modes, 2u);
}

TEST(Workload, UnimodalBenchmarksStayUnimodal)
{
    const auto &bench = rodiniaByName("backprop");
    for (int day = 0; day < 3; ++day) {
        SimulatedWorkload w(bench, m1, day, 6);
        EXPECT_EQ(stats::findModes(w.sampleMany(3000), 0.15).size(), 1u)
            << "day " << day;
    }
}

TEST(Workload, EffectiveModesRespectDayDrop)
{
    // Over many days, hotspot must sometimes lose a mode (drop prob
    // 0.4) and sometimes keep all three.
    const auto &bench = rodiniaByName("hotspot");
    bool saw_three = false, saw_fewer = false;
    for (int day = 0; day < 20; ++day) {
        SimulatedWorkload w(bench, m2, day, 1);
        if (w.effectiveModes().size() == 3)
            saw_three = true;
        else
            saw_fewer = true;
    }
    EXPECT_TRUE(saw_three);
    EXPECT_TRUE(saw_fewer);
}

TEST(Workload, FasterMachineGivesSmallerTimes)
{
    const auto &bench = rodiniaByName("kmeans");
    SimulatedWorkload slow(bench, m1, 0, 9);
    SimulatedWorkload fast(bench, m3, 0, 9);
    EXPECT_GT(stats::mean(slow.sampleMany(1000)),
              stats::mean(fast.sampleMany(1000)));
}

} // anonymous namespace
