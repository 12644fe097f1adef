/**
 * @file
 * Backends over the scenario library: seeded nonstationary generator
 * streams (ScenarioBackend) and recorded-trace replay (TraceBackend).
 *
 * The trace backend closes the loop the paper leaves open between
 * "run the experiment" and "re-analyze what was run": any tidy CSV or
 * JSONL journal produced by a SHARP campaign can be replayed through
 * the launcher as if it were a live backend, so stopping rules and
 * reports can be re-evaluated against real recorded sample streams.
 * In verbatim mode with a matching launch configuration (same day,
 * warmup, concurrency, and a rule covering the recorded rows) the
 * replayed campaign's tidy CSV is byte-identical to the recording —
 * that is the reproducibility contract tests pin. Shuffled and
 * bootstrap modes resample the measured samples seed-deterministically
 * to break or stress ordering effects.
 */

#ifndef SHARP_LAUNCHER_SCENARIO_BACKEND_HH
#define SHARP_LAUNCHER_SCENARIO_BACKEND_HH

#include <memory>
#include <string>
#include <vector>

#include "launcher/backend.hh"
#include "record/run_log.hh"
#include "rng/sampler.hh"
#include "rng/xoshiro.hh"
#include "sim/scenario.hh"

namespace sharp
{
namespace check
{
class CheckResult;
} // namespace check

namespace launcher
{

/** A recorded sample stream parsed from a tidy CSV or JSONL journal. */
struct TraceData
{
    /** Workload label of the recorded campaign (first row's). */
    std::string workload;
    /** Backend name of the recorded campaign (first row's). */
    std::string backend;
    /** Every recorded row, in recorded order (warmup rows included). */
    std::vector<record::RunRecord> records;
    /**
     * The measured stream: primary-metric values of successful,
     * non-warmup rows, in recorded order (what shuffled/bootstrap
     * modes resample).
     */
    std::vector<double> samples;
};

/**
 * The one reader of the trace at @p path, shared by replay and `sharp
 * check`: a tidy CSV through record::walkTidyCsv() at error severity
 * (replay reads `workload`, `backend`, `machine`, `warmup`, `failure`
 * and every metric column; it numbers its own rows and takes its day
 * from the launch configuration) or, for a ".jsonl" suffix, a run
 * journal through record::walkJournal(). @p metric is the primary
 * metric the measured stream is built from. Never throws; errors go
 * to @p out, located: the walk's, and a trace with no row or no
 * measured sample.
 */
TraceData walkTrace(const std::string &path, const std::string &metric,
                    check::CheckResult &out);

/**
 * walkTrace() with @p path on every finding.
 * @throws check::CheckFailure when it finds an error.
 */
TraceData loadTrace(const std::string &path, const std::string &metric);

/**
 * Streams a nonstationary generator family as a backend: one
 * invocation = one sample of the scenario's sampler, reported as
 * execution_time. Seeded by the scenario seed mixed with the run
 * seed, so distinct campaigns decorrelate but any (scenario, seed)
 * pair replays exactly.
 */
class ScenarioBackend : public Backend
{
  public:
    ScenarioBackend(sim::ScenarioSpec spec, uint64_t runSeed);

    std::string name() const override { return "scenario"; }
    std::string workloadName() const override { return spec.name; }
    RunResult run() override;
    bool deterministic() const override { return true; }

  private:
    sim::ScenarioSpec spec;
    std::shared_ptr<rng::Sampler> sampler;
    rng::Xoshiro256 gen;
};

/**
 * Replays a recorded trace. Verbatim mode re-emits the recorded rows
 * (workload, backend, machine, failure kind, full metric map) in
 * order, cycling back to the first row if the campaign asks for more
 * rows than were recorded. Shuffled mode emits a seeded permutation
 * of the measured stream (reshuffled each pass); bootstrap mode
 * resamples the measured stream with replacement.
 */
class TraceBackend : public Backend
{
  public:
    /** @throws std::runtime_error when the trace cannot be loaded. */
    TraceBackend(sim::ScenarioSpec spec, uint64_t runSeed);

    std::string name() const override { return data.backend; }
    std::string workloadName() const override { return data.workload; }
    RunResult run() override;
    bool deterministic() const override { return true; }

    /** The parsed trace (tests and tools introspect it). */
    const TraceData &trace() const { return data; }

  private:
    sim::ScenarioSpec spec;
    TraceData data;
    rng::Xoshiro256 gen;
    size_t cursor = 0;
    std::vector<size_t> order;

    RunResult verbatimNext();
    RunResult resampledNext();
};

/**
 * Build the backend a scenario describes: a TraceBackend for trace
 * scenarios, a ScenarioBackend otherwise.
 */
std::unique_ptr<Backend> makeScenarioBackend(const sim::ScenarioSpec &spec,
                                             uint64_t runSeed);

} // namespace launcher
} // namespace sharp

#endif // SHARP_LAUNCHER_SCENARIO_BACKEND_HH
