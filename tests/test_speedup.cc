/**
 * @file
 * Tests for stats::speedupOfMedians, the bootstrap `sharp compare`
 * confirms median shifts with: bit-equality with the sort-per-resample
 * spec, and its input contract.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "speedup_spec.hh"
#include "stats/speedup.hh"

namespace
{

using namespace sharp;

TEST(SpeedupOfMedians, CountingWalkMatchesSortSpec)
{
    // Every n up to 64, then a stride to 2000; test_properties.cc
    // strides on to 1e4.
    std::vector<size_t> small, large;
    for (size_t n = 1; n <= 64; ++n)
        small.push_back(n);
    for (size_t n = 65; n < 2000; n += 193)
        large.push_back(n);
    large.push_back(2000);

    test::SpeedupSweep sweep = test::sweepSpeedupOfMedians(small, 200);
    EXPECT_EQ(sweep.cases, 9 * small.size());
    EXPECT_EQ(sweep.mismatches, 0u) << sweep.firstMismatch;

    sweep = test::sweepSpeedupOfMedians(large, 50);
    EXPECT_EQ(sweep.cases, 9 * large.size());
    EXPECT_EQ(sweep.mismatches, 0u) << sweep.firstMismatch;
}

TEST(SpeedupOfMedians, RejectsUnsortedOrNonPositiveSamples)
{
    const std::vector<double> good = {1.0, 2.0, 2.0, 3.0};
    rng::Xoshiro256 gen(1);
    auto message = [&](const std::vector<double> &baseline,
                       const std::vector<double> &candidate) {
        try {
            stats::speedupOfMedians(baseline, candidate, 0.95, 100, gen);
        } catch (const std::invalid_argument &problem) {
            return std::string(problem.what());
        }
        return std::string("no throw");
    };

    EXPECT_EQ(message({1.0, 3.0, 2.0}, good),
              "speedupOfMedians: baseline sample is not in ascending "
              "order");
    EXPECT_EQ(message(good, {2.0, 1.0}),
              "speedupOfMedians: candidate sample is not in ascending "
              "order");

    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (double bad : {0.0, -1.0, nan}) {
        std::string got = message(good, {0.5, bad});
        EXPECT_NE(got.find("candidate sample has a non-positive value"),
                  std::string::npos)
            << bad << ": " << got;
        got = message({bad, 1.0}, good);
        EXPECT_NE(got.find("baseline sample has a non-positive value"),
                  std::string::npos)
            << bad << ": " << got;
    }
    EXPECT_EQ(message({}, good), "speedupOfMedians: baseline sample is "
                                 "empty");

    // A sorted, positive pair with ties is accepted.
    EXPECT_NO_THROW(stats::speedupOfMedians(good, good, 0.95, 100, gen));
}

} // anonymous namespace
