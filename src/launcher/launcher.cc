#include "launcher/launcher.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "core/stats_cache.hh"
#include "util/message.hh"
#include "util/string_utils.hh"

namespace sharp
{
namespace launcher
{

Launcher::Launcher(std::shared_ptr<Backend> backend_in,
                   std::unique_ptr<core::StoppingRule> rule,
                   LaunchOptions options_in)
    : backend(std::move(backend_in)), stoppingRule(std::move(rule)),
      options(options_in)
{
    if (!backend)
        throw std::invalid_argument("Launcher requires a backend");
    if (!stoppingRule)
        throw std::invalid_argument("Launcher requires a stopping rule");
    if (options.concurrency == 0)
        throw std::invalid_argument("Launcher requires concurrency >= 1");
    if (options.maxSamples < options.minSamples)
        throw std::invalid_argument(
            "Launcher requires maxSamples >= minSamples");
    if (options.maxFailureRate <= 0.0 || options.maxFailureRate > 1.0)
        throw std::invalid_argument(
            "Launcher requires maxFailureRate in (0, 1]");
    options.retry.validate();
}

LaunchReport
Launcher::launch()
{
    LaunchReport report;
    report.log = record::RunLog(backend->workloadName(),
                                options.primaryMetric);
    report.log.setConfigEntry("backend", backend->name());
    report.log.setConfigEntry("stopping_rule",
                              stoppingRule->describe());
    report.log.setConfigEntry("concurrency",
                              std::to_string(options.concurrency));
    report.log.setConfigEntry("jobs", std::to_string(options.jobs));
    report.log.setConfigEntry("warmup_rounds",
                              std::to_string(options.warmupRounds));
    report.log.setConfigEntry("max_samples",
                              std::to_string(options.maxSamples));
    report.log.setConfigEntry("day", std::to_string(options.day));
    report.log.setConfigEntry("max_failures",
                              std::to_string(options.maxFailures));
    if (options.maxFailureRate < 1.0)
        report.log.setConfigEntry(
            "max_failure_rate",
            util::formatDouble(options.maxFailureRate, 4));
    if (options.retry.enabled())
        report.log.setConfigEntry("retry", options.retry.describe());

    stoppingRule->reset();
    backend->setDay(options.day);

    size_t rule_floor =
        std::max(options.minSamples, stoppingRule->minSamples());
    size_t run_index = 0;
    size_t completed = 0; // measured invocations with a final attempt
    uint64_t retrySequence = 0;
    bool done = false;

    auto interrupted = [&]() {
        return options.interruptFlag && options.interruptFlag->load();
    };

    auto markInterrupted = [&]() {
        report.interrupted = true;
        report.finalDecision = core::StopDecision::stopNow(
            static_cast<double>(report.series.size()),
            static_cast<double>(options.maxSamples),
            options.journal
                ? "interrupted before completion; resumable from "
                  "the journal"
                : "interrupted before completion; no journal "
                  "attached, completed rounds are not recoverable");
        done = true;
    };

    // Backends predating the taxonomy may report failure without a
    // kind; successful runs missing the primary metric are unusable.
    auto classify = [&](RunResult &res, bool warmup) {
        if (res.success) {
            if (!warmup && std::isnan(res.metric(options.primaryMetric)))
                res.fail(FailureKind::UnparsableOutput,
                         "run lacks primary metric '" +
                             options.primaryMetric + "'");
        } else if (res.kind == FailureKind::None) {
            res.kind = FailureKind::BackendUnavailable;
        }
    };

    auto recordOf = [&](const RunResult &res, size_t instance,
                        size_t attempt, bool warmup) {
        record::RunRecord rec;
        rec.run = run_index;
        rec.instance = instance;
        rec.attempt = attempt;
        rec.workload = backend->workloadName();
        rec.backend = backend->name();
        rec.machine = res.machineId;
        rec.day = options.day;
        rec.warmup = warmup;
        rec.failure = res.kind;
        rec.metrics = res.metrics;
        return rec;
    };

    // Accounting for the final attempt of a measured invocation.
    auto absorbFinal = [&](const record::RunRecord &rec) {
        ++completed;
        if (!rec.succeeded()) {
            ++report.failures;
            ++report.failuresByKind[rec.failure];
            return;
        }
        auto it = rec.metrics.find(options.primaryMetric);
        if (it != rec.metrics.end())
            report.series.append(it->second);
    };

    // Rows of a round are grouped per instance with attempts in order,
    // so the final attempt is the last row of its instance group.
    auto absorbMeasuredRound =
        [&](const std::vector<record::RunRecord> &round) {
            for (size_t j = 0; j < round.size(); ++j) {
                bool finalAttempt =
                    j + 1 == round.size() ||
                    round[j + 1].instance != round[j].instance;
                if (finalAttempt)
                    absorbFinal(round[j]);
            }
        };

    // Post-round policy checks, shared by the live loop and the resume
    // replay. Returns true when the launch is over.
    auto roundBoundary = [&]() -> bool {
        size_t cap = std::max<size_t>(options.maxFailures, 1);
        bool hitCap = report.failures >= cap;
        bool hitRate = options.maxFailureRate < 1.0 &&
                       completed >= options.failureRateMinRuns &&
                       static_cast<double>(report.failures) >
                           options.maxFailureRate *
                               static_cast<double>(completed);
        if (hitCap || hitRate) {
            report.aborted = true;
            std::string reason =
                "aborted: too many failed runs for '" +
                backend->workloadName() + "' (" +
                std::to_string(report.failures) + "/" +
                std::to_string(completed) + " failed" +
                (hitRate && !hitCap ? ", rate policy" : "") +
                "): " + record::renderKindHistogram(report.failuresByKind);
            report.finalDecision = core::StopDecision::stopNow(
                static_cast<double>(report.failures),
                hitCap ? static_cast<double>(cap)
                       : options.maxFailureRate *
                             static_cast<double>(completed),
                reason);
            return true;
        }
        if (report.series.size() >= rule_floor) {
            // The decision of the round that reaches the cap is the one
            // the metadata records: evaluate it exactly, never from a
            // certified bound. A stop is exact by construction.
            if (report.series.size() >= options.maxSamples)
                report.series.stats().dropBounds();
            core::StopDecision decision =
                stoppingRule->evaluate(report.series);
            report.finalDecision = decision;
            if (decision.stop) {
                report.ruleFired = true;
                return true;
            }
        }
        return report.series.size() >= options.maxSamples;
    };

    // Resume: reload journaled rounds, fast-forward deterministic
    // backends through the exact call pattern the original made, and
    // replay the stopping rule at the live cadence so stateful rules
    // (e.g. meta-rule hysteresis) regain their state.
    size_t resumedWarmups = 0;
    if (options.resume) {
        const ResumeState &rs = *options.resume;
        resumedWarmups = rs.warmupRounds;
        run_index = rs.rounds;
        report.rounds = rs.rounds - std::min(rs.warmupRounds, rs.rounds);
        report.log.setConfigEntry("resumed_rounds",
                                  std::to_string(rs.rounds));

        size_t idx = 0;
        while (idx < rs.records.size()) {
            size_t run = rs.records[idx].run;
            bool warmup = rs.records[idx].warmup;
            std::vector<record::RunRecord> round;
            for (; idx < rs.records.size() && rs.records[idx].run == run;
                 ++idx)
                round.push_back(rs.records[idx]);

            if (backend->deterministic()) {
                size_t firstAttempts = 0;
                size_t retryCalls = 0;
                for (const auto &rec : round)
                    ++(rec.attempt == 0 ? firstAttempts : retryCalls);
                backend->runBatch(firstAttempts);
                for (size_t k = 0; k < retryCalls; ++k)
                    backend->run();
            }
            for (const auto &rec : round) {
                if (rec.attempt > 0) {
                    ++report.retries;
                    ++retrySequence; // keep the jitter stream aligned
                }
                report.log.add(rec);
            }
            if (!warmup) {
                absorbMeasuredRound(round);
                if (!done)
                    done = roundBoundary();
            }
            // Replay is progress too: without this, a supervisor
            // watchdog would see a resuming worker as silent for the
            // whole fast-forward and kill it mid-resume.
            if (options.roundObserver)
                options.roundObserver(run);
        }
    }

    auto executeRound = [&](bool warmup) {
        std::vector<RunResult> firsts =
            backend->runBatch(options.concurrency);
        std::vector<record::RunRecord> round;
        for (size_t i = 0; i < options.concurrency; ++i) {
            RunResult res =
                i < firsts.size()
                    ? std::move(firsts[i])
                    : RunResult::failure(FailureKind::BackendUnavailable,
                                         "backend returned no result");
            classify(res, warmup);
            size_t attempt = 0;
            if (!res.success)
                util::warn("run failed (%s): %s",
                           record::failureKindName(res.kind),
                           res.error.c_str());
            round.push_back(recordOf(res, i, attempt, warmup));
            while (!warmup && !res.success && options.retry.enabled() &&
                   attempt + 1 < options.retry.maxAttempts &&
                   options.retry.shouldRetry(res.kind)) {
                double delay = options.retry.backoffSeconds(
                    attempt, retrySequence++);
                if (delay > 0.0)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(delay));
                res = backend->run();
                classify(res, warmup);
                ++attempt;
                ++report.retries;
                if (!res.success)
                    util::warn("retry %zu failed (%s): %s", attempt,
                               record::failureKindName(res.kind),
                               res.error.c_str());
                round.push_back(recordOf(res, i, attempt, warmup));
            }
        }
        for (const auto &rec : round)
            report.log.add(rec);
        if (options.journal)
            options.journal->appendRound(round);
        if (options.roundObserver)
            options.roundObserver(run_index);
        ++run_index;
        return round;
    };

    // Warmup rounds (skipping any already journaled).
    for (size_t w = resumedWarmups;
         !done && w < options.warmupRounds; ++w) {
        if (interrupted()) {
            markInterrupted();
            break;
        }
        executeRound(true);
    }

    while (!done && report.series.size() < options.maxSamples) {
        if (interrupted()) {
            markInterrupted();
            break;
        }
        std::vector<record::RunRecord> round = executeRound(false);
        ++report.rounds;
        absorbMeasuredRound(round);
        done = roundBoundary();
    }

    if (!report.ruleFired && !report.aborted && !report.interrupted) {
        report.finalDecision.reason +=
            report.finalDecision.reason.empty()
                ? "stopped at maxSamples cap"
                : " [stopped at maxSamples cap]";
    }

    std::string stoppedBy = report.ruleFired  ? stoppingRule->name()
                            : report.aborted  ? "failure-policy"
                            : report.interrupted ? "interrupt"
                                                 : "max-samples";
    report.log.setConfigEntry("stopped_by", stoppedBy);
    report.log.setConfigEntry("stop_reason",
                              report.finalDecision.reason);
    report.log.setConfigEntry("failures",
                              std::to_string(report.failures));
    if (report.failures > 0)
        report.log.setConfigEntry(
            "failure_kinds",
            record::renderKindHistogram(report.failuresByKind));
    if (report.retries > 0)
        report.log.setConfigEntry("retries",
                                  std::to_string(report.retries));
    if (report.interrupted)
        report.log.setConfigEntry("resumable",
                                  options.journal ? "true" : "false");
    else if (options.journal)
        options.journal->markDone();
    return report;
}

} // namespace launcher
} // namespace sharp
