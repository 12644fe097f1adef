#include "record/run_log.hh"

#include <cmath>
#include <fstream>
#include <stdexcept>

#include "check/diagnostic.hh"
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

/**
 * How the tidy CSV writes a metric value. A NaN or infinity (a
 * backend's output pattern can capture `nan`) is no sample to any
 * reader, so it is written as the empty cell of an absent metric.
 */
std::string
metricCell(double value)
{
    return std::isfinite(value) ? util::formatDouble(value, 9) : "";
}

/** A string factor: written and read back verbatim. */
template <std::string RunRecord::*Field>
FactorColumn
textColumn(const char *name, const char *description)
{
    return {name, description,
            [](const RunRecord &record, std::string &cell) {
                cell = record.*Field;
            },
            [](const std::string &cell, RunRecord &record) {
                record.*Field = cell;
                return true;
            }};
}

/** A count factor; trace replay does not read it back. */
template <size_t RunRecord::*Field>
FactorColumn
countColumn(const char *name, const char *description)
{
    return {name, description,
            [](const RunRecord &record, std::string &cell) {
                cell = std::to_string(record.*Field);
            },
            nullptr};
}

} // anonymous namespace

const std::vector<FactorColumn> &
factorColumns()
{
    static const std::vector<FactorColumn> columns = {
        countColumn<&RunRecord::run>(
            "run", "0-based repetition index of the experiment"),
        countColumn<&RunRecord::instance>(
            "instance", "0-based concurrent instance index within a run"),
        countColumn<&RunRecord::attempt>(
            "attempt", "0-based attempt index; retried invocations log "
                       "one row per attempt"),
        textColumn<&RunRecord::workload>("workload",
                                         "benchmark or function name"),
        textColumn<&RunRecord::backend>(
            "backend", "execution backend that served the run"),
        textColumn<&RunRecord::machine>("machine",
                                        "machine or worker identifier"),
        {"day", "environment day index (simulated runs)",
         [](const RunRecord &record, std::string &cell) {
             cell = std::to_string(record.day);
         },
         nullptr},
        {"warmup", "true for discarded warmup runs (excluded from analysis)",
         [](const RunRecord &record, std::string &cell) {
             cell = record.warmup ? "true" : "false";
         },
         [](const std::string &cell, RunRecord &record) {
             record.warmup = cell == "true";
             return record.warmup || cell == "false";
         }},
        {"failure",
         "failure taxonomy kind: none, spawn-error, nonzero-exit, "
         "signal-crash, timeout, unparsable-output, backend-unavailable",
         [](const RunRecord &record, std::string &cell) {
             cell = failureKindName(record.failure);
         },
         [](const std::string &cell, RunRecord &record) {
             try {
                 record.failure = failureKindFromName(cell);
                 return true;
             } catch (const std::invalid_argument &) {
                 return false;
             }
         }},
    };
    return columns;
}

const FactorColumn *
findFactorColumn(const std::string &name)
{
    for (const FactorColumn &column : factorColumns()) {
        if (name == column.name)
            return &column;
    }
    return nullptr;
}

std::string
csvCell(const RunRecord &record, const std::string &column)
{
    std::string cell;
    if (const FactorColumn *factor = findFactorColumn(column)) {
        factor->write(record, cell);
    } else {
        auto it = record.metrics.find(column);
        if (it != record.metrics.end())
            cell = metricCell(it->second);
    }
    return cell;
}

void
walkTidyCsv(std::istream &in, check::CheckResult &out,
            check::Severity severity,
            const std::function<void(RunRecord &&)> &visit)
{
    // Per header column: the factor read there, or none, and whether
    // it is a metric.
    std::vector<std::string> header;
    std::vector<const FactorColumn *> factors;
    std::vector<bool> metric;
    CsvVisitor walk;
    walk.header = [&](const CsvRow &row) {
        header = row.cells;
        for (const std::string &name : header) {
            const FactorColumn *factor = findFactorColumn(name);
            factors.push_back(factor && factor->read ? factor : nullptr);
            metric.push_back(!factor);
        }
        for (const FactorColumn &factor : factorColumns()) {
            if (factor.read && !findColumn(header, factor.name)) {
                out.report(severity, row.at.front(), "csv-missing-column",
                           std::string("no '") + factor.name + "' column");
            }
        }
    };
    walk.row = [&](const CsvRow &row) {
        RunRecord record;
        for (size_t i = 0; i < header.size(); ++i) {
            const std::string &cell = row.cells[i];
            if (factors[i] && !factors[i]->read(cell, record)) {
                out.report(severity, row.at[i], "csv-vocabulary",
                           header[i] + " '" + cell +
                               "' is outside its vocabulary",
                           std::string("field dictionary: ") +
                               factors[i]->description);
            } else if (metric[i] && !cell.empty()) {
                auto value = util::parseDouble(cell);
                if (value && std::isfinite(*value)) {
                    record.metrics[header[i]] = *value;
                } else {
                    out.report(severity, row.at[i], "csv-metric",
                               "metric '" + header[i] + "' cell '" + cell +
                                   "' is not a finite number");
                }
            }
        }
        visit(std::move(record));
    };
    walkCsv(in, out, walk);
}

namespace
{

/** The tidy CSV's column names: the factors, then @p metrics. */
std::vector<std::string>
csvColumns(const std::vector<std::string> &metrics)
{
    std::vector<std::string> columns;
    for (const FactorColumn &column : factorColumns())
        columns.push_back(column.name);
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
    const std::vector<FactorColumn> &factors = factorColumns();
    cells.resize(factors.size() + metrics.size());
    for (size_t i = 0; i < factors.size(); ++i)
        factors[i].write(record, cells[i]);
    for (size_t i = 0; i < metrics.size(); ++i) {
        auto it = record.metrics.find(metrics[i]);
        cells[factors.size() + i] =
            it != record.metrics.end() ? metricCell(it->second) : "";
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
    for (const FactorColumn &column : factorColumns())
        doc.set(fields, column.name, column.description);
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
