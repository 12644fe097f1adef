/**
 * @file
 * Stopping-rule calibration harness.
 *
 * The paper tunes its eight tailored stopping rules and the
 * meta-heuristic "based on a set of 10 synthetic distributions that
 * capture different distributions we observe in real experiments"
 * (§IV-c). This module reproduces that tuning experiment as a
 * first-class, deterministic harness: every registered stopping rule is
 * swept against every entry of rng::syntheticRegistry() across a seed
 * grid, and each (rule, distribution, seed) cell records how the rule's
 * stopping decision traded samples for fidelity:
 *
 *   - samples-to-stop (and whether the rule actually fired before the
 *     sample cap),
 *   - the two-sample KS distance of the collected partial sample to a
 *     large ground-truth reference sample,
 *   - the relative width of the two-sided 95% mean CI at stop and
 *     whether it covered the ground-truth mean (where a mean CI is
 *     meaningful — skipped for the heavy-tail and constant entries),
 *   - the online classifier's label at stop versus the ground truth.
 *
 * Cells run on the PR-1 thread pool (util::parallelFor); each cell
 * derives its own generator seed from (base seed, rule, distribution,
 * repetition) so the emitted CSV and JSON are byte-identical for any
 * `jobs` value. Wall time is measured per cell but excluded from the
 * artifacts unless `recordTimings` is set, precisely because it is the
 * one nondeterministic quantity.
 *
 * Rules are consulted after every sample up to 200 samples and on a
 * mildly geometric schedule (every max(1, n/50) samples) beyond, so
 * expensive rules (KDE-based modality, KS-of-halves) stay subquadratic;
 * recorded samples-to-stop may overshoot the exact firing point by at
 * most 2% for very long runs.
 */

#ifndef SHARP_CALIBRATE_CALIBRATION_HH
#define SHARP_CALIBRATE_CALIBRATION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "json/value.hh"
#include "record/csv.hh"
#include "rng/synthetic.hh"

namespace sharp
{
namespace calibrate
{

/** Sweep configuration. Defaults reproduce the checked-in baseline. */
struct CalibrationConfig
{
    /** Rules to sweep; empty means every registered rule. */
    std::vector<std::string> rules;
    /**
     * Distributions to sweep; empty means the full registry — the
     * paper's ten synthetics plus the five nonstationary families —
     * and any extraDistributions.
     */
    std::vector<std::string> distributions;
    /**
     * Ad-hoc distributions beyond the registries, e.g. scenario-file
     * entries from `sharp calibrate --scenarios`. Looked up first, so
     * a scenario may shadow a registry name.
     */
    std::vector<rng::SyntheticSpec> extraDistributions;
    /** Repetitions per (rule, distribution) cell group. */
    size_t seedsPerCell = 9;
    /** Base seed the per-cell seeds are derived from. */
    uint64_t baseSeed = 1;
    /** Sample cap per cell when the rule never fires. */
    size_t maxSamples = 800;
    /** Ground-truth reference sample size per distribution. */
    size_t truthSamples = 8192;
    /** Worker threads (1 = serial; output is identical for any value). */
    size_t jobs = 1;
    /** Include per-cell wall time in the CSV (breaks byte-identity). */
    bool recordTimings = false;

    /** Resolve empty rule/distribution lists against the registries. */
    void resolveDefaults();
};

/** One (rule, distribution, repetition) measurement. */
struct CalibrationCell
{
    std::string rule;
    std::string distribution;
    /** Repetition index within the cell group. */
    size_t seedIndex = 0;
    /** Derived generator seed actually used. */
    uint64_t cellSeed = 0;
    /** Samples collected when the decision was made. */
    size_t samplesToStop = 0;
    /** False when the sample cap, not the rule, ended the run. */
    bool ruleFired = false;
    /** KS distance of the partial sample to the ground-truth sample. */
    double postStopKs = 0.0;
    /** Relative width of the two-sided 95% mean CI at stop. */
    double ciRelWidth = 0.0;
    /** Whether the CI covered the ground-truth mean. */
    bool ciCovered = false;
    /** False for distributions where a mean CI is not meaningful. */
    bool ciApplicable = false;
    /** Ground-truth distribution class name. */
    std::string truthClass;
    /** Online classifier's label on the collected sample. */
    std::string classifiedClass;
    bool classifierCorrect = false;
    /**
     * For the meta rule: the delegate in force when the run ended —
     * what the §IV-c tuning actually selects per distribution. Empty
     * for every other rule.
     */
    std::string metaDelegate;
    /** Cell wall time; informational, nondeterministic. */
    double wallSeconds = 0.0;
};

/** A full sweep: config echo plus every cell in deterministic order. */
struct CalibrationResult
{
    CalibrationConfig config;
    std::vector<CalibrationCell> cells;

    /** Tidy per-cell CSV (one row per cell, stable column order). */
    record::CsvTable toCsv() const;

    /**
     * Machine-readable summary: config echo, per rule×distribution
     * medians over the seed grid, the classifier confusion matrix with
     * overall accuracy, and the meta-versus-fixed comparison used by
     * the acceptance gate. This JSON is also the baseline format.
     */
    json::Value summaryJson() const;
};

/**
 * The console view of @p summary (a summaryJson() of @p cells cells):
 * per-rule medians over the swept distributions, the classifier's
 * accuracy, and the meta-versus-fixed wins when the summary has them.
 */
std::string renderSummary(const json::Value &summary, size_t cells);

/**
 * Derive the generator seed for one cell. SplitMix64-chained over the
 * base seed, the *names* of the rule and distribution (FNV-1a hashed),
 * and the repetition index: neighboring cells get unrelated streams, a
 * pure function of its inputs makes output jobs-independent, and name
 * (rather than sweep-position) keying means a cell draws the same
 * stream no matter which other rules/distributions are swept along.
 */
uint64_t cellSeed(uint64_t baseSeed, const std::string &rule,
                  const std::string &distribution, size_t seedIndex);

/**
 * Run the sweep described by @p config (defaults resolved first).
 * Deterministic: the same config yields byte-identical toCsv() and
 * summaryJson() output for any `jobs` value.
 *
 * @throws std::out_of_range for unknown rule or distribution names.
 */
CalibrationResult runCalibration(CalibrationConfig config);

/**
 * KS slack under which two stopping rules' post-stop distances are
 * considered tied: two-sample KS at the ~100-sample operating point
 * fluctuates by several hundredths seed-to-seed, so demanding strict
 * improvement would compare noise. Used by the meta-versus-fixed
 * acceptance comparison in summaryJson().
 */
constexpr double kKsTieBand = 0.02;

} // namespace calibrate
} // namespace sharp

#endif // SHARP_CALIBRATE_CALIBRATION_HH
