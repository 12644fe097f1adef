/**
 * @file
 * The Launcher — SHARP's centerpiece (§IV-a): "It executes individual
 * functions or programs as prescribed by the workload whilst
 * coordinating the execution backend, the stopping criteria, and the
 * logging."
 *
 * A launch proceeds in rounds. Each round issues `concurrency`
 * invocations through the backend (batched, so FaaS dispatch sees
 * genuinely parallel requests), logs every instance as its own tidy
 * row, appends the primary metric to the sample series, and consults
 * the stopping rule. Warmup rounds are executed, logged, and flagged,
 * but excluded from analysis ("cold- and warm-start invocations").
 *
 * The launcher is fault-tolerant: failed invocations are classified by
 * FailureKind, retried per a RetryPolicy (each attempt its own tidy
 * row), and counted against both an absolute failure cap and a
 * failure-rate policy. With a journal attached, every completed round
 * is persisted and fsync'd, so a killed campaign can be resumed; with
 * an interrupt flag attached, SIGINT/SIGTERM end the launch at the
 * next round boundary with the journal intact.
 */

#ifndef SHARP_LAUNCHER_LAUNCHER_HH
#define SHARP_LAUNCHER_LAUNCHER_HH

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/sample_series.hh"
#include "core/stopping/stopping_rule.hh"
#include "launcher/backend.hh"
#include "launcher/retry.hh"
#include "record/journal.hh"
#include "record/run_log.hh"

namespace sharp
{
namespace launcher
{

/**
 * Completed rounds reloaded from a journal, ready to seed a resumed
 * launch. Build one with resumeStateFromJournal() (resume.hh).
 */
struct ResumeState
{
    /** Journaled records in execution order (warmup rows included). */
    std::vector<record::RunRecord> records;
    /** Completed rounds, warmup included. */
    size_t rounds = 0;
    /** Warmup rounds among them. */
    size_t warmupRounds = 0;
};

/** Orchestration options for one launch. */
struct LaunchOptions
{
    /** Warmup rounds (logged, flagged, excluded from analysis). */
    size_t warmupRounds = 0;
    /** Minimum retained samples before the rule may stop the run. */
    size_t minSamples = 2;
    /** Hard cap on retained samples. */
    size_t maxSamples = 10000;
    /** Concurrent instances per round. */
    size_t concurrency = 1;
    /**
     * Execution-layer worker threads (recorded in the log so
     * reproductions replay with the same setting; sample values are
     * independent of it by design).
     */
    size_t jobs = 1;
    /** Environment day passed to the backend. */
    int day = 0;
    /** Metric the stopping rule watches. */
    std::string primaryMetric = "execution_time";
    /**
     * Abort once this many invocations have failed (after retries).
     * Exactly maxFailures failures trigger the abort; 0 behaves like
     * 1 (no failure tolerated).
     */
    size_t maxFailures = 10;
    /**
     * Abort when the failed fraction of completed invocations exceeds
     * this rate (evaluated once failureRateMinRuns invocations have
     * completed). 1.0 disables the rate policy.
     */
    double maxFailureRate = 1.0;
    /** Minimum completed invocations before the rate policy applies. */
    size_t failureRateMinRuns = 20;
    /** Retry policy applied to failed measured invocations. */
    RetryPolicy retry;
    /** Journal every completed round here (optional, non-owning). */
    record::RunJournal *journal = nullptr;
    /** Resume from these journaled rounds (optional, non-owning). */
    const ResumeState *resume = nullptr;
    /**
     * Checked between rounds; when it reads true the launch stops,
     * flushes, and reports interrupted (optional, non-owning).
     */
    const std::atomic<bool> *interruptFlag = nullptr;
    /**
     * Called with the run index after each completed round, once the
     * round has been journaled (optional). Also fires for each round
     * replayed during resume — fast-forwarding a deterministic
     * backend re-executes its call pattern, which takes real time.
     * Supervised workers use it to emit liveness heartbeats at round
     * granularity, so a watchdog deadline bounds the cost of one
     * round, not a whole campaign (or a whole resume).
     */
    std::function<void(size_t)> roundObserver;
};

/** Everything a launch produces. */
struct LaunchReport
{
    /** Primary-metric samples (non-warmup, all instances). */
    core::SampleSeries series;
    /** True if the stopping rule fired (vs. hitting maxSamples). */
    bool ruleFired = false;
    /** The decision that ended the launch. */
    core::StopDecision finalDecision;
    /** Rounds executed (excluding warmup), resumed rounds included. */
    size_t rounds = 0;
    /** Invocations whose final attempt failed. */
    size_t failures = 0;
    /** Failure histogram by kind (final attempts only). */
    std::map<FailureKind, size_t> failuresByKind;
    /** Retry attempts issued beyond first attempts. */
    size_t retries = 0;
    /** True when the launch aborted due to the failure policy. */
    bool aborted = false;
    /** True when the launch was interrupted (resumable). */
    bool interrupted = false;
    /** The complete tidy log (warmup rows included, flagged). */
    record::RunLog log;

    LaunchReport() : log("unnamed") {}
};

/**
 * Binds a backend, a stopping rule, and logging into one experiment.
 */
class Launcher
{
  public:
    /**
     * @param backend execution backend (shared so callers can keep
     *                inspecting it after the launch)
     * @param rule    stopping rule (owned)
     * @param options orchestration options
     */
    Launcher(std::shared_ptr<Backend> backend,
             std::unique_ptr<core::StoppingRule> rule,
             LaunchOptions options = LaunchOptions());

    /** Execute the launch. */
    LaunchReport launch();

    /** The stopping rule in use. */
    const core::StoppingRule &rule() const { return *stoppingRule; }

  private:
    std::shared_ptr<Backend> backend;
    std::unique_ptr<core::StoppingRule> stoppingRule;
    LaunchOptions options;
};

} // namespace launcher
} // namespace sharp

#endif // SHARP_LAUNCHER_LAUNCHER_HH
