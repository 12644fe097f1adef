/**
 * @file
 * The run log: SHARP's Logger component (§IV-d). Accumulates one
 * record per concurrent instance per run ("tidy data"), then writes
 * the CSV plus the accompanying metadata markdown. The metadata holds
 * the field dictionary, SUT description, experiment configuration, and
 * SHARP's own version, so a run can be recreated from its artifacts.
 */

#ifndef SHARP_RECORD_RUN_LOG_HH
#define SHARP_RECORD_RUN_LOG_HH

#include <functional>
#include <istream>
#include <map>
#include <string>
#include <vector>

#include "record/csv.hh"
#include "record/failure.hh"
#include "record/metadata.hh"
#include "record/sysinfo.hh"

namespace sharp
{
namespace check
{
class CheckResult;
enum class Severity;
} // namespace check

namespace record
{

/** One logged measurement instance. */
struct RunRecord
{
    /** 0-based run (round) index. */
    size_t run = 0;
    /** 0-based concurrent-instance index within the run. */
    size_t instance = 0;
    /** 0-based attempt index for this instance (retries append rows). */
    size_t attempt = 0;
    /** Workload (benchmark/function) name. */
    std::string workload;
    /** Backend name, e.g. "sim", "local", "faas". */
    std::string backend;
    /** Machine/worker identifier. */
    std::string machine;
    /** Day index of the environment (simulated runs). */
    int day = 0;
    /** True for discarded warmup runs (still logged, flagged). */
    bool warmup = false;
    /** How the invocation ended (None for successful runs). */
    FailureKind failure = FailureKind::None;
    /** Metric name -> value; must include the primary metric. */
    std::map<std::string, double> metrics;

    /** Convenience: true when the invocation did not fail. */
    bool succeeded() const { return failure == FailureKind::None; }
};

/**
 * One factor column of the tidy CSV: the nine columns every row
 * starts with, before its metrics. The writer, the metadata's field
 * dictionary, trace replay and `sharp check` all read this one table.
 */
struct FactorColumn
{
    /** Column name. */
    const char *name;
    /** Its entry in the metadata's field dictionary. */
    const char *description;
    /** Write the cell the tidy CSV holds for @p record into @p cell. */
    void (*write)(const RunRecord &record, std::string &cell);
    /**
     * Read @p cell back into @p record, as trace replay does; nullptr
     * for a column replay does not read.
     * @return false for a cell outside the column's vocabulary.
     */
    bool (*read)(const std::string &cell, RunRecord &record);
};

/** The factor columns, in the order every tidy row starts with. */
const std::vector<FactorColumn> &factorColumns();

/** The factor column named @p name; nullptr for a metric column. */
const FactorColumn *findFactorColumn(const std::string &name);

/**
 * The cell the tidy CSV holds for @p record under @p column: the
 * factor as written, the metric as written, or empty when the record
 * has no such metric or holds a NaN or infinity for it.
 */
std::string csvCell(const RunRecord &record, const std::string &column);

/**
 * Read a tidy CSV's rows back into records through walkCsv(): the
 * factor columns with a FactorColumn::read, and every metric column
 * (an empty cell is an absent metric); `run`, `instance`, `attempt`
 * and `day` are not read. Reported at @p severity: a missing column
 * that is read (`csv-missing-column`, at the header), a factor cell
 * outside its vocabulary (`csv-vocabulary`) and a metric cell that is
 * not a finite number (`csv-metric`), each at its cell. Trace replay
 * reads with errors, `sharp check` with warnings. Every row the walk
 * visits goes to @p visit. Never throws (@p visit may).
 */
void walkTidyCsv(std::istream &in, check::CheckResult &out,
                 check::Severity severity,
                 const std::function<void(RunRecord &&)> &visit);

/**
 * Accumulates run records and writes the paired CSV + metadata files.
 */
class RunLog
{
  public:
    /**
     * @param experimentName  logical name, used as the file title
     * @param primaryMetric   the metric the stopping rule watches
     */
    RunLog(std::string experimentName,
           std::string primaryMetric = "execution_time");

    /** Append a record. */
    void add(RunRecord record);

    /** All records, in insertion order. */
    const std::vector<RunRecord> &records() const { return entries; }

    /** Number of records. */
    size_t size() const { return entries.size(); }

    /** Attach the SUT description included in the metadata. */
    void setSystemInfo(SystemInfo info);

    /** Attach experiment configuration entries (key -> value). */
    void setConfigEntry(const std::string &key, const std::string &value);

    /** Record a descriptive note for a metric column. */
    void describeMetric(const std::string &name,
                        const std::string &description);

    /** Union of metric names across records, in first-seen order. */
    std::vector<std::string> metricNames() const;

    /** Values of the primary metric from non-warmup records. */
    std::vector<double> primaryValues() const;

    /** Build the tidy CSV table. */
    CsvTable toCsv() const;

    /** Build the metadata document (field dictionary + SUT + config). */
    MetadataDocument toMetadata() const;

    /**
     * Write <basePath>.csv and <basePath>.md.
     * @throws std::runtime_error on I/O failure.
     */
    void save(const std::string &basePath) const;

  private:
    std::string name;
    std::string primary;
    std::vector<RunRecord> entries;
    SystemInfo sut;
    bool sutSet = false;
    std::vector<std::pair<std::string, std::string>> configEntries;
    std::map<std::string, std::string> metricDocs;
};

} // namespace record
} // namespace sharp

#endif // SHARP_RECORD_RUN_LOG_HH
