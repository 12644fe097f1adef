/**
 * @file
 * The scenario library's property and contract tests: seeded
 * determinism of the five nonstationary generator families, their
 * per-family shape invariants, regime-boundary accounting, scenario
 * JSON round-trips, trace replay in all three modes — including the
 * golden byte-identity contract (record a campaign, replay it
 * verbatim, get the same tidy CSV back) — and jobs-independence of a
 * calibration sweep that includes the families.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "calibrate/calibration.hh"
#include "json/writer.hh"
#include "launcher/launcher.hh"
#include "launcher/reproduce.hh"
#include "launcher/scenario_backend.hh"
#include "launcher/suite.hh"
#include "rng/nonstationary.hh"
#include "rng/xoshiro.hh"
#include "sim/scenario.hh"
#include "stats/autocorr.hh"
#include "stats/descriptive.hh"

namespace
{

namespace fs = std::filesystem;
using namespace sharp;
using rng::FamilyParams;
using rng::Xoshiro256;
using sim::ScenarioSpec;

std::string
repoPath(const std::string &relative)
{
    return std::string(SHARP_SOURCE_DIR) + "/" + relative;
}

std::string
tempPath(const std::string &name)
{
    return (fs::temp_directory_path() / name).string();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** @p n samples from a fresh sampler of @p family under @p seed. */
std::vector<double>
familyStream(const std::string &family, uint64_t seed, size_t n,
             const FamilyParams &params = {})
{
    Xoshiro256 gen(seed);
    auto sampler = rng::makeFamilySampler(family, params);
    std::vector<double> values;
    values.reserve(n);
    for (size_t i = 0; i < n; ++i)
        values.push_back(sampler->sample(gen));
    return values;
}

// ---- Seeded determinism: the foundational property every stream in
// ---- this repo keeps — same seed, same stream; new seed, new stream.

TEST(NonstationaryFamilies, SameSeedReplaysTheExactStream)
{
    for (const auto &family : rng::familyNames()) {
        auto first = familyStream(family, 42, 300);
        auto second = familyStream(family, 42, 300);
        EXPECT_EQ(first, second) << family;
        auto other = familyStream(family, 43, 300);
        EXPECT_NE(first, other) << family;
    }
}

TEST(NonstationaryFamilies, RegistryCoversExactlyTheFiveFamilies)
{
    auto names = rng::familyNames();
    ASSERT_EQ(names.size(), 5u);
    for (const auto &name : names) {
        EXPECT_TRUE(rng::isKnownFamily(name));
        const auto &spec = rng::nonstationaryByName(name);
        EXPECT_EQ(spec.name, name);
        // Every family builds a working sampler from its defaults.
        Xoshiro256 gen(1);
        EXPECT_TRUE(std::isfinite(spec.make()->sample(gen)));
    }
    EXPECT_FALSE(rng::isKnownFamily("trace"));
    EXPECT_THROW(rng::nonstationaryByName("nope"), std::out_of_range);
}

// ---- Per-family shape invariants, under the canonical defaults.

TEST(NonstationaryFamilies, LoadRampMeanClimbsFromStartToEnd)
{
    // Defaults ramp 8 -> 16 over 600 samples; compare thirds so both
    // sides are far from the crossover.
    auto values = familyStream("load-ramp", 7, 600);
    double early = stats::mean(std::vector<double>(
        values.begin(), values.begin() + 200));
    double late = stats::mean(std::vector<double>(
        values.begin() + 400, values.end()));
    EXPECT_NEAR(early, 9.33, 0.5);  // mean of ramp over [0, 1/3]
    EXPECT_NEAR(late, 14.67, 0.5);  // mean of ramp over [2/3, 1]
    EXPECT_GT(late - early, 4.0);
}

TEST(NonstationaryFamilies, RegimeSwitchStaysNearItsLevels)
{
    // Defaults: levels {8, 12}, sigma 0.35. Every sample should sit
    // within a few sigma of one of the two levels, and both regimes
    // must actually be visited.
    auto values = familyStream("regime-switch", 9, 800);
    size_t nearLow = 0;
    size_t nearHigh = 0;
    for (double v : values) {
        if (std::fabs(v - 8.0) < 2.0)
            ++nearLow;
        else if (std::fabs(v - 12.0) < 2.0)
            ++nearHigh;
        else
            ADD_FAILURE() << "sample " << v << " near neither level";
    }
    EXPECT_GT(nearLow, 100u);
    EXPECT_GT(nearHigh, 100u);
}

TEST(NonstationaryFamilies, RegimeSwitchCountsItsBoundaries)
{
    Xoshiro256 gen(11);
    rng::RegimeSwitchSampler sampler({8.0, 12.0}, 0.35, 40.0);
    size_t n = 800;
    std::vector<double> values;
    for (size_t i = 0; i < n; ++i)
        values.push_back(sampler.sample(gen));

    // Mean dwell 40 over 800 samples: expect on the order of 20
    // switches, and the counter must agree with what the stream shows.
    size_t counted = sampler.switches();
    EXPECT_GE(counted, 8u);
    EXPECT_LE(counted, 40u);
    size_t observed = 0;
    int side = values[0] < 10.0 ? 0 : 1;
    for (double v : values) {
        int now = v < 10.0 ? 0 : 1;
        if (now != side) {
            ++observed;
            side = now;
        }
    }
    // Noise cannot cross the 2-sigma gap between levels, so regime
    // boundaries in the values are exactly the sampler's switches.
    EXPECT_EQ(observed, counted);
}

TEST(NonstationaryFamilies, HeavyTailBurstsAreEpisodic)
{
    // Defaults: lognormal base around 10, a 12-sample Cauchy-tailed
    // burst every 70 samples. Far-tail samples must exist but stay a
    // minority, and the baseline in between must look tame.
    auto values = familyStream("heavy-tail-burst", 5, 1400);
    size_t far = 0;
    for (double v : values) {
        if (std::fabs(v - 10.0) > 6.0)
            ++far;
    }
    EXPECT_GT(far, 20u);
    EXPECT_LT(far, values.size() / 4);
    // The burst-free majority keeps a tame median.
    std::vector<double> copy = values;
    EXPECT_NEAR(stats::median(std::move(copy)), 10.0, 1.0);
}

TEST(NonstationaryFamilies, CoRunnerStreamIsStronglyAutocorrelated)
{
    auto values = familyStream("co-runner", 3, 1000);
    double rho = stats::autocorrelation(values, 1);
    EXPECT_GT(rho, 0.5);
    // An independent control at the same marginal scale stays near 0.
    auto control = familyStream("heavy-tail-burst", 3, 1000);
    EXPECT_LT(std::fabs(stats::autocorrelation(control, 1)), 0.35);
}

TEST(NonstationaryFamilies, DiurnalDriftSweepsItsAmplitude)
{
    // Defaults: amplitude 2.5 around base 10, period 300. Quarter-
    // period window means must swing by more than the amplitude (the
    // sinusoid's swing is 2x amplitude; noise is only 0.35).
    auto values = familyStream("diurnal-drift", 21, 900);
    std::vector<double> windowMeans;
    for (size_t start = 0; start + 75 <= values.size(); start += 75) {
        windowMeans.push_back(stats::mean(std::vector<double>(
            values.begin() + static_cast<long>(start),
            values.begin() + static_cast<long>(start + 75))));
    }
    auto [low, high] = std::minmax_element(windowMeans.begin(),
                                           windowMeans.end());
    EXPECT_GT(*high - *low, 2.5);
}

// ---- Scenario files: schema round-trip and the shipped library.

TEST(ScenarioLibrary, EveryShippedScenarioLoadsAndRoundTrips)
{
    const char *files[] = {"co_runner.json",       "diurnal_drift.json",
                           "heavy_tail_burst.json", "load_ramp.json",
                           "regime_switch.json",    "trace_replay.json"};
    for (const char *file : files) {
        ScenarioSpec spec =
            sim::loadScenario(repoPath("scenarios/") + file);
        EXPECT_FALSE(spec.name.empty()) << file;
        // Serialization round-trips through the parser.
        ScenarioSpec again =
            ScenarioSpec::fromJson(spec.toJson(), spec.baseDir);
        EXPECT_EQ(json::write(again.toJson()),
                  json::write(spec.toJson()))
            << file;
        if (spec.isTrace()) {
            EXPECT_EQ(spec.trace.mode, sim::TraceMode::Verbatim);
            continue;
        }
        // Family scenarios build deterministic samplers.
        Xoshiro256 a(9);
        Xoshiro256 b(9);
        EXPECT_EQ(spec.makeSampler()->sample(a),
                  spec.makeSampler()->sample(b))
            << file;
    }
}

TEST(ScenarioLibrary, TraceScenarioHasNoSamplerOrDistribution)
{
    ScenarioSpec spec =
        sim::loadScenario(repoPath("scenarios/trace_replay.json"));
    EXPECT_THROW(spec.makeSampler(), std::logic_error);
    EXPECT_THROW(sim::scenarioDistribution(spec),
                 std::invalid_argument);
}

// ---- Trace replay: the three resampling modes.

TEST(TraceReplay, ShuffledModeIsASeededPermutationOfTheMeasurements)
{
    ScenarioSpec spec =
        sim::loadScenario(repoPath("scenarios/trace_replay.json"));
    spec.trace.mode = sim::TraceMode::Shuffled;

    launcher::TraceBackend backend(spec, /*runSeed=*/4);
    size_t n = backend.trace().samples.size();
    ASSERT_GT(n, 2u);
    std::vector<double> replayed;
    for (size_t i = 0; i < n; ++i)
        replayed.push_back(
            backend.run().metric("execution_time"));

    std::vector<double> recorded = backend.trace().samples;
    EXPECT_NE(replayed, recorded); // actually shuffled...
    std::vector<double> replayedSorted = replayed;
    std::vector<double> recordedSorted = recorded;
    std::sort(replayedSorted.begin(), replayedSorted.end());
    std::sort(recordedSorted.begin(), recordedSorted.end());
    EXPECT_EQ(replayedSorted, recordedSorted); // ...but a permutation

    // Same (scenario seed, run seed) -> the same permutation.
    launcher::TraceBackend again(spec, 4);
    std::vector<double> repeat;
    for (size_t i = 0; i < n; ++i)
        repeat.push_back(again.run().metric("execution_time"));
    EXPECT_EQ(repeat, replayed);
}

TEST(TraceReplay, ResamplingModesAreSeedDeterministic)
{
    ScenarioSpec spec =
        sim::loadScenario(repoPath("scenarios/trace_replay.json"));
    for (auto mode :
         {sim::TraceMode::Shuffled, sim::TraceMode::Bootstrap}) {
        spec.trace.mode = mode;
        launcher::TraceBackend a(spec, 7);
        launcher::TraceBackend b(spec, 7);
        launcher::TraceBackend other(spec, 8);
        std::vector<double> sa;
        std::vector<double> sb;
        std::vector<double> so;
        for (size_t i = 0; i < 80; ++i) {
            sa.push_back(a.run().metric("execution_time"));
            sb.push_back(b.run().metric("execution_time"));
            so.push_back(other.run().metric("execution_time"));
        }
        EXPECT_EQ(sa, sb) << sim::traceModeName(mode);
        EXPECT_NE(sa, so) << sim::traceModeName(mode);
        // Every emitted value is one of the recorded measurements.
        std::set<double> pool(a.trace().samples.begin(),
                              a.trace().samples.end());
        for (double v : sa)
            EXPECT_TRUE(pool.count(v)) << sim::traceModeName(mode);
    }
}

/**
 * The golden reproducibility contract (DESIGN.md §10): record a
 * campaign, point a verbatim trace scenario at its tidy CSV, replay
 * with a matching launch configuration, and the replayed campaign's
 * tidy CSV is byte-for-byte the recording.
 */
TEST(TraceReplay, VerbatimRoundTripReproducesTheTidyCsvByteForByte)
{
    // 1. Record: a deterministic sim campaign, fixed-count 25.
    launcher::ReproSpec recordSpec;
    recordSpec.backendKind = "sim";
    recordSpec.workload = "bfs";
    recordSpec.machines = {"machine1"};
    recordSpec.seed = 5;
    recordSpec.experiment.ruleName = "fixed";
    recordSpec.experiment.ruleParams["count"] = 25;
    recordSpec.experiment.options.maxSamples = 25;
    launcher::LaunchReport recorded =
        launcher::runCampaign(recordSpec).report;
    std::string recordedCsv = recorded.log.toCsv().toCsv();
    std::string tracePath = tempPath("sharp_golden_trace.csv");
    {
        std::ofstream out(tracePath, std::ios::binary);
        out << recordedCsv;
    }

    // 2. A verbatim trace scenario pointing at the recording.
    ScenarioSpec scenario;
    scenario.name = "golden";
    scenario.family = "trace";
    scenario.trace.path = tracePath; // absolute; baseDir not needed
    std::string scenarioPath = tempPath("sharp_golden_scenario.json");
    {
        std::ofstream out(scenarioPath, std::ios::binary);
        out << json::writePretty(scenario.toJson());
    }

    // 3. Replay with the matching configuration.
    launcher::ReproSpec replaySpec;
    replaySpec.backendKind = "scenario";
    replaySpec.scenario = scenarioPath;
    replaySpec.experiment.ruleName = "fixed";
    replaySpec.experiment.ruleParams["count"] = 25;
    replaySpec.experiment.options.maxSamples = 25;
    launcher::LaunchReport replayed =
        launcher::runCampaign(replaySpec).report;

    EXPECT_EQ(replayed.log.toCsv().toCsv(), recordedCsv);

    fs::remove(tracePath);
    fs::remove(scenarioPath);
}

/**
 * Replay reads no `day` cell: a trace whose days are out of any
 * integer's range, fractional or not numbers at all replays verbatim
 * to the recording with the launch configuration's day.
 */
TEST(TraceReplay, DayCellsAreNotRead)
{
    launcher::ReproSpec recordSpec;
    recordSpec.backendKind = "sim";
    recordSpec.workload = "bfs";
    recordSpec.machines = {"machine1"};
    recordSpec.seed = 5;
    recordSpec.experiment.ruleName = "fixed";
    recordSpec.experiment.ruleParams["count"] = 12;
    recordSpec.experiment.options.maxSamples = 12;
    std::string recordedCsv =
        launcher::runCampaign(recordSpec).report.log.toCsv().toCsv();

    // Every row's day cell (column 7) becomes 1e300, 2.5 or abc.
    const char *days[] = {"1e300", "2.5", "abc"};
    std::istringstream lines(recordedCsv);
    std::string line;
    std::string trace;
    for (size_t row = 0; std::getline(lines, line); ++row) {
        if (row > 0) {
            size_t at = 0;
            for (int comma = 0; comma < 6; ++comma)
                at = line.find(',', at) + 1;
            line.replace(at, line.find(',', at) - at, days[row % 3]);
        }
        trace += line + "\n";
    }
    ASSERT_NE(trace, recordedCsv);
    std::string tracePath = tempPath("sharp_day_trace.csv");
    std::ofstream(tracePath, std::ios::binary) << trace;

    ScenarioSpec scenario;
    scenario.name = "days";
    scenario.family = "trace";
    scenario.trace.path = tracePath;
    std::string scenarioPath = tempPath("sharp_day_scenario.json");
    std::ofstream(scenarioPath, std::ios::binary)
        << json::writePretty(scenario.toJson());

    launcher::ReproSpec replaySpec;
    replaySpec.backendKind = "scenario";
    replaySpec.scenario = scenarioPath;
    replaySpec.experiment.ruleName = "fixed";
    replaySpec.experiment.ruleParams["count"] = 12;
    replaySpec.experiment.options.maxSamples = 12;
    EXPECT_EQ(
        launcher::runCampaign(replaySpec).report.log.toCsv().toCsv(),
        recordedCsv);

    fs::remove(tracePath);
    fs::remove(scenarioPath);
}

// ---- Suite and calibration integration.

TEST(ScenarioSuite, DirectoryExpandsToOneEntryPerScenarioFile)
{
    auto entries = launcher::scenarioSuite(repoPath("scenarios"));
    ASSERT_EQ(entries.size(), 6u);
    // Sorted by filename; display names are the stems.
    EXPECT_EQ(entries.front().workload, "co_runner");
    EXPECT_EQ(entries.back().workload, "trace_replay");
    for (const auto &entry : entries)
        EXPECT_FALSE(entry.scenario.empty());
}

TEST(ScenarioCalibration, FamilySweepIsByteIdenticalForAnyJobs)
{
    calibrate::CalibrationConfig config;
    config.rules = {"meta"};
    config.distributions = {"regime-switch", "co-runner"};
    config.seedsPerCell = 2;
    config.maxSamples = 150;
    config.truthSamples = 500;

    config.jobs = 1;
    calibrate::CalibrationResult serial = runCalibration(config);
    config.jobs = 4;
    calibrate::CalibrationResult parallel = runCalibration(config);

    EXPECT_EQ(serial.toCsv().toCsv(), parallel.toCsv().toCsv());
    EXPECT_EQ(json::writePretty(serial.summaryJson()),
              json::writePretty(parallel.summaryJson()));
    // The families land in the summary with their ground-truth class
    // and a recorded meta delegation.
    for (const auto &cell : serial.cells) {
        EXPECT_FALSE(cell.metaDelegate.empty())
            << cell.distribution;
        EXPECT_EQ(cell.truthClass,
                  rng::syntheticClassName(
                      rng::familyTruth(cell.distribution)));
    }
}

TEST(ScenarioCalibration, ScenarioFilesJoinTheSweepAsDistributions)
{
    ScenarioSpec spec =
        sim::loadScenario(repoPath("scenarios/co_runner.json"));
    rng::SyntheticSpec dist = sim::scenarioDistribution(spec);
    EXPECT_EQ(dist.name, "co_runner");
    EXPECT_TRUE(dist.correlated);

    calibrate::CalibrationConfig config;
    config.rules = {"fixed"};
    config.distributions = {"co_runner"};
    config.extraDistributions = {dist};
    config.seedsPerCell = 1;
    config.maxSamples = 60;
    config.truthSamples = 300;
    calibrate::CalibrationResult result = runCalibration(config);
    ASSERT_EQ(result.cells.size(), 1u);
    EXPECT_EQ(result.cells[0].distribution, "co_runner");
}

} // namespace
