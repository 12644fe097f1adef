/**
 * @file
 * The versioned scenario library: schema-tagged JSON descriptions of
 * workload streams, beyond the paper's ten stationary synthetics.
 *
 * A scenario file (`sharp-scenario-v1`) names either one of the five
 * nonstationary generator families (rng/nonstationary.hh) with its
 * parameters, or a recorded trace to replay (family "trace", pointing
 * at a tidy CSV or JSONL journal with a resampling mode). Scenarios
 * are loaded by `sharp run --scenario`, swept by `sharp suite
 * --scenarios` and `sharp calibrate --scenarios`, and deep-checked by
 * `sharp check` without executing anything.
 *
 * Schema (all unknown fields are diagnosed with did-you-mean hints):
 *
 *   {
 *     "schema": "sharp-scenario-v1",
 *     "name": "ramp-up",              // registry key; required
 *     "family": "load-ramp",          // one of the five families or
 *                                     // "trace"; required
 *     "description": "...",           // optional free text
 *     "seed": "7",                    // stream seed (decimal string
 *                                     // or number); default 1
 *     "params": { "start": 8.0 },     // family-specific scalars;
 *                                     // regime-switch also accepts
 *                                     // "levels": [8.0, 12.0]
 *     "trace": {                      // family "trace" only
 *       "path": "traces/run.csv",     // resolved relative to the
 *                                     // scenario file's directory
 *       "metric": "execution_time",   // primary metric column
 *       "mode": "verbatim"            // verbatim | shuffled | bootstrap
 *     }
 *   }
 *
 * Replay semantics are documented in DESIGN.md §10: verbatim replays
 * the recorded rows in order (byte-identical tidy CSV for a matching
 * launch configuration), shuffled permutes the measured samples with
 * the scenario seed, bootstrap resamples them with replacement.
 */

#ifndef SHARP_SIM_SCENARIO_HH
#define SHARP_SIM_SCENARIO_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "json/value.hh"
#include "rng/nonstationary.hh"
#include "rng/sampler.hh"
#include "rng/synthetic.hh"

namespace sharp
{
namespace check
{
class CheckResult;
} // namespace check

namespace sim
{

/** Schema tag carried by every scenario file. */
extern const char kScenarioSchema[];

/** How a recorded trace is re-emitted on replay. */
enum class TraceMode
{
    /** The recorded rows, in recorded order. */
    Verbatim,
    /** The measured samples, permuted with the scenario seed. */
    Shuffled,
    /** The measured samples, resampled with replacement. */
    Bootstrap,
};

/** Name of a trace mode ("verbatim", "shuffled", "bootstrap"). */
const char *traceModeName(TraceMode mode);

/** Parse a trace mode name. @throws std::invalid_argument. */
TraceMode traceModeFromName(const std::string &name);

/** The trace block of a family-"trace" scenario. */
struct TraceSpec
{
    /** CSV or JSONL path, relative to the scenario file's directory. */
    std::string path;
    /** Primary metric column replayed in resampling modes. */
    std::string metric = "execution_time";
    TraceMode mode = TraceMode::Verbatim;
};

/** One parsed scenario file. */
struct ScenarioSpec
{
    /** Registry key (also the replayed stream's workload label). */
    std::string name;
    /** Family name: one of rng::familyNames() or "trace". */
    std::string family;
    std::string description;
    /** Stream seed; mixed with the run seed at backend construction. */
    uint64_t seed = 1;
    /** Generator-family parameters (ignored for traces). */
    rng::FamilyParams params;
    /** Trace block (family "trace" only). */
    TraceSpec trace;
    /** Directory of the file this spec was loaded from ("" if none). */
    std::string baseDir;

    /** True for a trace-replay scenario. */
    bool isTrace() const { return family == "trace"; }

    /** The trace path joined onto baseDir (trace scenarios only). */
    std::string tracePath() const;

    /**
     * Fresh generator sampler for a family scenario.
     * @throws std::logic_error for a trace scenario.
     */
    std::shared_ptr<rng::Sampler> makeSampler() const;

    /**
     * Parse a scenario document; @p baseDir is the directory of the
     * file it came from. @throws check::CheckFailure on any
     * error-severity finding.
     */
    static ScenarioSpec fromJson(const json::Value &doc,
                                 const std::string &baseDir);

    /** Serialize (round-trips through fromJson). */
    json::Value toJson() const;
};

/**
 * Load and parse @p path.
 * @throws std::runtime_error when the file cannot be read, and
 *         check::CheckFailure, its findings located in @p path, when
 *         it is not JSON or not a valid scenario.
 */
ScenarioSpec loadScenario(const std::string &path);

/**
 * Static analysis of a scenario document: schema tag, required
 * fields, unknown fields (with did-you-mean hints, including the
 * per-family parameter lists), parameter ranges, and — when
 * @p baseDir is non-empty — a dangling trace path. Never throws;
 * findings are appended to @p out.
 */
void checkScenario(const json::Value &doc, const std::string &baseDir,
                   check::CheckResult &out);

/**
 * Shape a generator-family scenario as a calibration distribution so
 * `sharp calibrate --scenarios` gives it a row next to the synthetics.
 * @throws std::invalid_argument for a trace scenario (a recorded
 *         trace has no ground-truth generative class to score).
 */
rng::SyntheticSpec scenarioDistribution(const ScenarioSpec &spec);

/**
 * The directory part of @p path ("" when there is none). Exposed so
 * every scenario consumer resolves trace paths the same way.
 */
std::string dirNameOf(const std::string &path);

} // namespace sim
} // namespace sharp

#endif // SHARP_SIM_SCENARIO_HH
