/**
 * @file
 * The gate workload. Unit: one compare of a candidate set.
 *
 * Set-up runs seeded sim campaigns to tidy CSVs (the format the
 * campaign workload writes), captures a baseline bundle from one set
 * and saves it. Each unit is what `sharp compare RUNS --against
 * BUNDLE` does: load the bundle, capture the candidate CSVs, compare
 * with default tolerances (2000 bootstrap resamples) and render. One
 * candidate set carries a slowdown injected into one scenario through
 * the fault backend's "slow" band; only that set may exit 1.
 */

#include <algorithm>

#include "common.hh"
#include "compare/bundle.hh"
#include "compare/compare.hh"
#include "rng/xoshiro.hh"
#include "stats/speedup.hh"
#include "util/fs.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

using namespace sharp;

namespace
{

const char *const kWorkloads[] = {"backprop", "bfs",    "heartwall",
                                  "hotspot",  "srad",   "needle",
                                  "kmeans",   "lavaMD", "lud", "sc",
                                  "leukocyte"};
const char *const kMachines[] = {"machine1", "machine2", "machine3"};

/** Multiplier the injected slowdown applies to every sample. */
constexpr double kSlowFactor = 1.25;

struct Scenario
{
    std::string workload;
    std::string machine;
    size_t samples = 0;
};

struct Plan
{
    std::vector<Scenario> scenarios;
    /** Candidate set j, scenario k -> CSV path. */
    std::vector<std::vector<std::string>> candidates;
    size_t slowSet = 0;
    size_t slowScenario = 0;
};

} // namespace

void
gateWorkload(Run &run)
{
    const Options &opt = run.opt;
    // Sized so one run holds 100+ compares (p90 needs ten beyond it):
    // the bootstrap sorts 2 x 2000 resamples per scenario, ~0.3 s at
    // 10^3 samples on a 4-vCPU x86 host.
    const size_t scenarioCount = 2;
    const size_t setCount = opt.quick ? 3 : 8;
    const size_t samples = opt.quick ? 200 : 1000;
    std::string dir = opt.work + "/gate";
    util::makeDirectories(dir);

    // Seeded inputs: distinct workloads (the bundle groups by
    // workload), machines, stream seeds, and where the slowdown goes.
    Plan plan;
    std::vector<std::string> names(std::begin(kWorkloads),
                                   std::end(kWorkloads));
    uint64_t state = mix(opt.seed);
    for (size_t k = 0; k < scenarioCount; ++k) {
        state = mix(state);
        std::swap(names[k], names[k + state % (names.size() - k)]);
        state = mix(state);
        plan.scenarios.push_back(
            {names[k], kMachines[state % std::size(kMachines)], samples});
    }
    plan.slowSet = mix(state) % setCount;
    plan.slowScenario = mix(state + 1) % scenarioCount;

    // Job 0 is the baseline set, job j + 1 candidate set j.
    std::vector<std::string> baselineCsvs(scenarioCount);
    plan.candidates.assign(setCount, std::vector<std::string>(scenarioCount));
    size_t jobs = (setCount + 1) * scenarioCount;
    util::parallelFor(opt.workers, jobs, [&](size_t job) {
        size_t set = job / scenarioCount;
        size_t k = job % scenarioCount;
        const Scenario &s = plan.scenarios[k];
        json::Value spec =
            simSpec(s.workload, s.machine, mix(opt.seed * 7919 + job) % 1000000 + 1,
                    "fixed", "count", static_cast<double>(s.samples),
                    s.samples);
        bool slow = set > 0 && set - 1 == plan.slowSet &&
                    k == plan.slowScenario;
        if (slow) {
            json::Value fault = json::Value::makeObject();
            fault.set("slow", 1.0);
            fault.set("slow_factor", kSlowFactor);
            spec.set("fault", std::move(fault));
        }
        std::string base = dir + "/set" + std::to_string(set) + "-" +
                           std::to_string(k);
        executeCampaign(spec, base);
        (set == 0 ? baselineCsvs[k] : plan.candidates[set - 1][k]) =
            base + ".csv";
    });

    std::string bundlePath = dir + "/baseline.json";
    compare::BaselineBundle captured;
    {
        Scope scope(run.trace, "compare.capture");
        captured = compare::captureBaseline(baselineCsvs);
    }
    {
        Scope scope(run.trace, "compare.save");
        compare::saveBundle(captured, bundlePath);
    }
    size_t capturedRows = captured.excludedWarmup + captured.excludedFailures;
    for (const auto &scenario : captured.scenarios)
        capturedRows += scenario.sorted.size();
    if (run.setupDone())
        return;

    std::vector<int> exitCodes(setCount, -1);
    std::vector<std::string> flagged(setCount);
    std::vector<int64_t> unitNs(setCount);
    std::vector<double> latencyMs;
    int64_t busyNs = 0;
    double busyWall = 0.0;
    size_t mismatches = 0;

    Run::PassTimes times = run.repeat([&](size_t pass, bool traced) {
        int64_t start = nowNs();
        util::parallelFor(opt.workers, setCount, [&](size_t j) {
            uint64_t unit = pass * setCount + j;
            int64_t begin = nowNs();
            Scope scope(run.trace, "compare.unit", -1, unit);
            int64_t parent = scope.spanId();
            try {
                compare::BaselineBundle baseline;
                {
                    Scope load(run.trace, "compare.load", parent, unit);
                    baseline = compare::loadBundle(bundlePath);
                }
                compare::CaptureOptions capture;
                capture.metric = baseline.metric;
                capture.groupBy = baseline.groupBy;
                compare::BaselineBundle candidate;
                {
                    Scope cand(run.trace, "compare.candidate", parent, unit);
                    candidate =
                        compare::captureBaseline(plan.candidates[j], capture);
                }
                compare::CompareReport report;
                {
                    Scope cmp(run.trace, "compare.compare", parent, unit);
                    report = compare::compareBundles(baseline, candidate);
                }
                std::string text;
                {
                    Scope render(run.trace, "compare.render", parent, unit);
                    text = report.renderText();
                }
                exitCodes[j] = report.exitCode();
                flagged[j].clear();
                for (const auto &scenario : report.scenarios) {
                    if (!scenario.pass())
                        flagged[j] += scenario.name + " ";
                }
                if (text.empty())
                    exitCodes[j] = 2;
            } catch (const std::exception &problem) {
                exitCodes[j] = 2;
                flagged[j] = problem.what();
            }
            unitNs[j] = nowNs() - begin;
        });
        double wall = toSeconds(nowNs() - start);
        for (size_t j = 0; j < setCount; ++j) {
            ++run.attempted;
            if (exitCodes[j] == 2)
                ++run.failed;
            int expected = j == plan.slowSet ? 1 : 0;
            std::string expectedFlag =
                expected ? plan.scenarios[plan.slowScenario].workload + " "
                         : "";
            if (exitCodes[j] != expected || flagged[j] != expectedFlag) {
                if (mismatches++ == 0) {
                    run.problem("candidate set " + std::to_string(j) +
                                " exited " + std::to_string(exitCodes[j]) +
                                " (expected " + std::to_string(expected) +
                                "), flagged: " + flagged[j]);
                }
            }
            if (!traced) {
                latencyMs.push_back(toSeconds(unitNs[j]) * 1e3);
                busyNs += unitNs[j];
            }
        }
        if (!traced)
            busyWall += wall;
    });
    double peakRss = peakRssMb();
    if (mismatches > 1)
        run.problem(std::to_string(mismatches) + " compares exited wrongly");

    run.reportWall(times);
    if (!opt.trace) {
        run.metric("p50_ms", quantile(latencyMs, 0.50), "ms");
        run.metric("p90_ms", quantile(latencyMs, 0.90), "ms");
        run.metric("peak_rss_mb", peakRss, "MB");
        return;
    }

    // The bootstrap alone, on the same samples, outside the traced
    // passes: the share of compare_s that speedupOfMedians explains.
    compare::BaselineBundle baseline = compare::loadBundle(bundlePath);
    std::vector<int64_t> bootstrapNs(setCount);
    util::parallelFor(opt.workers, setCount, [&](size_t j) {
        compare::CaptureOptions capture;
        capture.groupBy = baseline.groupBy;
        compare::BaselineBundle candidate =
            compare::captureBaseline(plan.candidates[j], capture);
        compare::CompareTolerances tol;
        for (const auto &base : baseline.scenarios) {
            const compare::ScenarioSamples *cand = candidate.find(base.name);
            if (!cand)
                continue;
            rng::Xoshiro256 gen(tol.seed);
            int64_t begin = nowNs();
            stats::speedupOfMedians(base.sorted, cand->sorted, tol.level,
                                    tol.resamples, gen);
            bootstrapNs[j] += nowNs() - begin;
        }
    });
    int64_t bootstrapTotal = 0;
    for (int64_t ns : bootstrapNs)
        bootstrapTotal += ns;

    Trace &trace = run.trace;
    run.metric("compare.capture_s", trace.seconds("compare.capture"), "s");
    run.metric("compare.rows", static_cast<double>(capturedRows), "count");
    run.metric("compare.save_s", trace.seconds("compare.save"), "s");
    run.metric("compare.bundle_mb", fileMb(bundlePath), "MB");
    run.metric("compare.load_s", run.perPass(trace.seconds("compare.load")),
               "s");
    run.metric("compare.candidate_s",
               run.perPass(trace.seconds("compare.candidate")), "s");
    run.metric("compare.compare_s",
               run.perPass(trace.seconds("compare.compare")), "s");
    run.metric("compare.render_s",
               run.perPass(trace.seconds("compare.render")), "s");
    run.metric("stats.bootstrap_s", toSeconds(bootstrapTotal), "s");
    run.metric("util.busy_share",
               toSeconds(busyNs) /
                   (static_cast<double>(opt.workers) * busyWall),
               "share");
    run.metric("trace.spans", static_cast<double>(trace.spanCount()),
               "count");
}

} // namespace perfbench
