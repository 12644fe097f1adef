/**
 * @file
 * Baseline bundles: the checked-in half of `sharp compare`.
 *
 * `sharp baseline capture` distills one or more recorded runs (tidy
 * CSVs or run journals) into a versioned bundle: per-scenario sorted
 * samples plus a descriptive summary, keyed by the grouping column
 * (workload by default), with the capture provenance echoed so `sharp
 * check` can lint it. The bundle is a plain JSON document —
 * "sharp-baseline-bundle-v1" — written atomically and built to be
 * byte-identical for any --jobs and across recaptures of the same
 * inputs: scenario keys are sorted, sample arrays are sorted
 * ascending, numbers round-trip exactly, and nothing time- or
 * host-dependent is recorded.
 */

#ifndef SHARP_COMPARE_BUNDLE_HH
#define SHARP_COMPARE_BUNDLE_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "json/value.hh"
#include "stats/descriptive.hh"

namespace sharp
{
namespace check
{
class CheckResult;
} // namespace check

namespace compare
{

/** Schema tag of a baseline-bundle document. */
inline constexpr const char *kBaselineBundleSchema =
    "sharp-baseline-bundle-v1";

/** One scenario's distilled distribution. */
struct ScenarioSamples
{
    std::string name;
    /** The metric sample, sorted ascending. */
    std::vector<double> sorted;
    /** Descriptive summary of the same sample. */
    stats::Summary summary;
};

/** How `baseline capture` ingests recorded runs. */
struct CaptureOptions
{
    /** Metric column to distill. */
    std::string metric = "execution_time";
    /** Column whose values name the scenarios. */
    std::string groupBy = "workload";
    /** Parse input files in parallel; the bundle is identical for any. */
    size_t jobs = 1;
};

/** A captured baseline (or candidate) distribution set. */
struct BaselineBundle
{
    std::string metric;
    std::string groupBy;
    /** Scenarios sorted by name. */
    std::vector<ScenarioSamples> scenarios;
    /** Capture provenance: the input paths, in capture order. */
    std::vector<std::string> inputs;
    /** Rows excluded at capture. */
    size_t excludedWarmup = 0;
    size_t excludedFailures = 0;

    /** Scenario by name; nullptr when absent. */
    const ScenarioSamples *find(const std::string &name) const;

    json::Value toJson() const;

    /**
     * Strict load: runs checkBaselineBundle and throws CheckFailure on
     * any error-severity finding.
     */
    static BaselineBundle fromJson(const json::Value &doc);
};

/** One input file's samples, before any cross-file merge. */
struct FileSamples
{
    /** Scenario name -> values, in row order. */
    std::map<std::string, std::vector<double>> byScenario;
    size_t excludedWarmup = 0;
    size_t excludedFailures = 0;
};

/**
 * The samples of one tidy CSV, by the one row rule for recorded runs:
 * a warmup row or a failed attempt never counts, and a metric cell
 * that is not a finite number (`nan` and `inf` included) is skipped.
 * Rows group by the options.groupBy column; a missing column or an
 * empty cell groups as "all". The file streams through
 * record::walkCsv(), keeping only each row's value and group.
 * @throws std::runtime_error on unreadable input or a missing metric
 *         column, and check::CheckFailure, its findings located in
 *         @p path, when the walk finds an error.
 */
FileSamples ingestCsv(const std::string &path,
                      const CaptureOptions &options);

/**
 * Ingest recorded runs into a bundle. CSV inputs group rows by the
 * groupBy column (a missing column yields the single scenario "all");
 * .jsonl inputs are run journals, whose records group by the cell the
 * CSV of the same run holds in that column (record::csvCell()), so
 * both give the same scenarios. Warmup rows and failed rows are
 * excluded. Files are parsed with up to options.jobs threads but
 * merged in input order, so the result is deterministic.
 *
 * @throws std::runtime_error on unreadable input or a missing metric
 *         column; check::CheckFailure (a std::invalid_argument) when an
 *         input fails its walk; std::invalid_argument when no usable
 *         samples remain.
 */
BaselineBundle captureBaseline(const std::vector<std::string> &inputs,
                               const CaptureOptions &options = {});

/**
 * Write the bundle. A path ending in ".json" is written as that file;
 * anything else is treated as a bundle directory (created if needed)
 * holding baseline.json. The write is atomic (tmp + rename). Returns
 * the path written.
 */
std::string saveBundle(const BaselineBundle &bundle,
                       const std::string &path);

/**
 * Load a bundle from a file, or from a directory holding
 * baseline.json. @throws CheckFailure, its findings located in that
 * file, when it is not JSON or not a valid bundle;
 * std::runtime_error on I/O failure.
 */
BaselineBundle loadBundle(const std::string &path);

/**
 * Static analysis of a baseline-bundle document: schema tag, required
 * members, per-scenario sample arrays (non-empty, numeric, sorted
 * ascending, count consistent with "n"), and summary sanity. Never
 * throws; findings are appended to @p out.
 */
void checkBaselineBundle(const json::Value &doc, check::CheckResult &out);

} // namespace compare
} // namespace sharp

#endif // SHARP_COMPARE_BUNDLE_HH
