#include "launcher/suite.hh"

#include <stdexcept>

#include "sim/machine.hh"
#include "sim/rodinia.hh"
#include "util/fs.hh"
#include "util/string_utils.hh"
#include "util/thread_pool.hh"

namespace sharp
{
namespace launcher
{

double
SuiteReport::savedVersusFixed(size_t fixedRuns) const
{
    size_t attempted = outcomes.size() - failures;
    if (attempted == 0 || fixedRuns == 0)
        return 0.0;
    double budget = static_cast<double>(attempted * fixedRuns);
    return 1.0 - static_cast<double>(totalRuns) / budget;
}

SuiteReport
runSuite(const std::vector<SuiteEntry> &entries,
         const core::ExperimentConfig &config, int day, size_t jobs,
         const RetryPolicy &retry)
{
    SuiteReport report;
    report.outcomes.resize(entries.size());

    // Each entry owns its backend and stopping rule, built from the
    // same spec the serial path used, so entries are independent and
    // the per-entry samples do not depend on jobs. Writing to slot i
    // keeps the report ordering deterministic under any scheduling.
    util::parallelFor(jobs, entries.size(), [&](size_t i) {
        SuiteOutcome outcome;
        outcome.entry = entries[i];
        try {
            ReproSpec spec;
            if (!entries[i].scenario.empty()) {
                spec.backendKind = "scenario";
                spec.scenario = entries[i].scenario;
            } else {
                spec.backendKind = "sim";
                spec.workload = entries[i].workload;
                spec.machines = {entries[i].machine};
            }
            spec.day = day;
            spec.seed = config.seed;
            spec.jobs = jobs;
            spec.experiment = config;
            spec.retry = retry;

            LaunchReport launch = runCampaign(spec).report;
            outcome.series = std::move(launch.series);
            outcome.ruleFired = launch.ruleFired;
            outcome.stopReason = launch.finalDecision.reason;
            outcome.runFailures = launch.failures;
            outcome.retries = launch.retries;
            outcome.aborted = launch.aborted;
        } catch (const std::exception &ex) {
            outcome.failed = true;
            outcome.error = ex.what();
        }
        report.outcomes[i] = std::move(outcome);
    });

    for (const auto &outcome : report.outcomes) {
        if (outcome.failed) {
            ++report.failures;
        } else {
            report.totalRuns += outcome.series.size();
            report.runFailures += outcome.runFailures;
            report.retries += outcome.retries;
        }
    }
    return report;
}

std::vector<SuiteEntry>
scenarioSuite(const std::string &dir)
{
    std::vector<SuiteEntry> entries;
    for (const auto &name : util::listDirectory(dir)) {
        if (!util::endsWith(name, ".json"))
            continue;
        SuiteEntry entry;
        // Display name: the file stem; the scenario's own name is not
        // known without parsing, which is deferred to the run.
        entry.workload = name.substr(0, name.size() - 5);
        entry.scenario = dir + "/" + name;
        entries.push_back(std::move(entry));
    }
    return entries;
}

std::vector<SuiteEntry>
rodiniaSuite(const std::string &machine)
{
    const auto &spec = sim::machineById(machine); // validates the id
    std::vector<SuiteEntry> entries;
    for (const auto &bench : sim::rodiniaRegistry()) {
        if (bench.kind == sim::BenchmarkKind::Cuda && !spec.hasGpu())
            continue;
        entries.push_back({bench.name, machine});
    }
    return entries;
}

} // namespace launcher
} // namespace sharp
