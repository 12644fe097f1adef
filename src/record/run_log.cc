#include "record/run_log.hh"

#include <fstream>
#include <stdexcept>

#include "util/string_utils.hh"
#include "util/time_utils.hh"

namespace sharp
{
namespace record
{

RunLog::RunLog(std::string experimentName, std::string primaryMetric)
    : name(std::move(experimentName)), primary(std::move(primaryMetric))
{
}

void
RunLog::add(RunRecord record)
{
    entries.push_back(std::move(record));
}

void
RunLog::setSystemInfo(SystemInfo info)
{
    sut = std::move(info);
    sutSet = true;
}

void
RunLog::setConfigEntry(const std::string &key, const std::string &value)
{
    for (auto &entry : configEntries) {
        if (entry.first == key) {
            entry.second = value;
            return;
        }
    }
    configEntries.emplace_back(key, value);
}

void
RunLog::describeMetric(const std::string &metric,
                       const std::string &description)
{
    metricDocs[metric] = description;
}

std::vector<std::string>
RunLog::metricNames() const
{
    std::vector<std::string> names;
    auto seen = [&names](const std::string &candidate) {
        for (const auto &existing : names) {
            if (existing == candidate)
                return true;
        }
        return false;
    };
    for (const auto &record : entries) {
        for (const auto &[metric, value] : record.metrics) {
            (void)value;
            if (!seen(metric))
                names.push_back(metric);
        }
    }
    return names;
}

std::vector<double>
RunLog::primaryValues() const
{
    std::vector<double> out;
    for (const auto &record : entries) {
        if (record.warmup || !record.succeeded())
            continue;
        auto it = record.metrics.find(primary);
        if (it != record.metrics.end())
            out.push_back(it->second);
    }
    return out;
}

namespace
{

/** The factor columns every row starts with, before its metrics. */
constexpr size_t kFactorColumns = 9;

/** The tidy CSV's column names: fixed factors, then @p metrics. */
std::vector<std::string>
csvColumns(const std::vector<std::string> &metrics)
{
    std::vector<std::string> columns = {
        "run",     "instance", "attempt", "workload", "backend",
        "machine", "day",      "warmup",  "failure"};
    columns.insert(columns.end(), metrics.begin(), metrics.end());
    return columns;
}

/**
 * The row formatter behind both toCsv() and save(): @p record's cells,
 * in csvColumns(@p metrics) order, written over @p cells so a caller
 * that loops reuses the strings' storage.
 */
void
formatRow(const RunRecord &record, const std::vector<std::string> &metrics,
          std::vector<std::string> &cells)
{
    cells.resize(kFactorColumns + metrics.size());
    cells[0] = std::to_string(record.run);
    cells[1] = std::to_string(record.instance);
    cells[2] = std::to_string(record.attempt);
    cells[3] = record.workload;
    cells[4] = record.backend;
    cells[5] = record.machine;
    cells[6] = std::to_string(record.day);
    cells[7] = record.warmup ? "true" : "false";
    cells[8] = failureKindName(record.failure);
    for (size_t i = 0; i < metrics.size(); ++i) {
        auto it = record.metrics.find(metrics[i]);
        cells[kFactorColumns + i] = it != record.metrics.end()
                                        ? util::formatDouble(it->second, 9)
                                        : "";
    }
}

} // anonymous namespace

CsvTable
RunLog::toCsv() const
{
    std::vector<std::string> metrics = metricNames();
    CsvTable table(csvColumns(metrics));
    std::vector<std::string> cells;
    for (const auto &record : entries) {
        formatRow(record, metrics, cells);
        table.addRow(cells);
    }
    return table;
}

MetadataDocument
RunLog::toMetadata() const
{
    MetadataDocument doc;
    doc.setTitle(name);

    doc.set("Experiment", "name", name);
    doc.set("Experiment", "primary_metric", primary);
    doc.set("Experiment", "records", std::to_string(entries.size()));
    doc.set("Experiment", "written_at", util::isoTimestamp());
    doc.set("Experiment", "sharp_version", "sharp-cpp 1.0.0");
    for (const auto &[key, value] : configEntries)
        doc.set("Configuration", key, value);

    if (sutSet)
        sut.addToMetadata(doc);

    const std::string fields = "Field Dictionary";
    doc.set(fields, "run", "0-based repetition index of the experiment");
    doc.set(fields, "instance",
            "0-based concurrent instance index within a run");
    doc.set(fields, "attempt",
            "0-based attempt index; retried invocations log one row "
            "per attempt");
    doc.set(fields, "workload", "benchmark or function name");
    doc.set(fields, "backend", "execution backend that served the run");
    doc.set(fields, "machine", "machine or worker identifier");
    doc.set(fields, "day", "environment day index (simulated runs)");
    doc.set(fields, "warmup",
            "true for discarded warmup runs (excluded from analysis)");
    doc.set(fields, "failure",
            "failure taxonomy kind: none, spawn-error, nonzero-exit, "
            "signal-crash, timeout, unparsable-output, "
            "backend-unavailable");
    for (const auto &metric : metricNames()) {
        auto it = metricDocs.find(metric);
        doc.set(fields, metric,
                it != metricDocs.end()
                    ? it->second
                    : "collected metric (seconds unless noted)");
    }
    return doc;
}

void
RunLog::save(const std::string &basePath) const
{
    // Stream the rows: the same bytes as toCsv().save(), without
    // holding every cell of a long campaign as a string, and then the
    // whole file as one more.
    std::string path = basePath + ".csv";
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot open CSV file for writing: " +
                                 path);
    std::vector<std::string> metrics = metricNames();
    std::string line;
    appendCsvLine(line, csvColumns(metrics));
    std::vector<std::string> cells;
    for (const auto &record : entries) {
        formatRow(record, metrics, cells);
        appendCsvLine(line, cells);
        // Flush in blocks: one write per row would cost more calls.
        if (line.size() >= 1 << 16) {
            out << line;
            line.clear();
        }
    }
    out << line;
    if (!out)
        throw std::runtime_error("error writing CSV file: " + path);
    out.close();
    toMetadata().save(basePath + ".md");
}

} // namespace record
} // namespace sharp
