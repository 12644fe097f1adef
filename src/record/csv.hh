/**
 * @file
 * Tidy-data CSV reading and writing.
 *
 * "All metrics and factors are logged in a 'tidy data' CSV file to
 * facilitate statistical processing ... and records each concurrent
 * instance in its own row." (§IV-d). Fields are RFC-4180 quoted when
 * needed; the reader handles quoted fields, embedded separators,
 * escaped quotes, and both LF and CRLF line endings.
 */

#ifndef SHARP_RECORD_CSV_HH
#define SHARP_RECORD_CSV_HH

#include <optional>
#include <string>
#include <vector>

namespace sharp
{
namespace record
{

/**
 * An in-memory CSV table: a header row plus data rows of strings.
 */
class CsvTable
{
  public:
    CsvTable() = default;

    /** Create with column names. */
    explicit CsvTable(std::vector<std::string> columns);

    /** Column names. */
    const std::vector<std::string> &columns() const { return header; }

    /** Index of column @p name, if present. */
    std::optional<size_t> columnIndex(const std::string &name) const;

    /** Number of data rows. */
    size_t numRows() const { return rows.size(); }

    /** Append a row (must match the column count). */
    void addRow(std::vector<std::string> row);

    /** Cell access. */
    const std::string &cell(size_t row, size_t col) const;

    /**
     * Extract a column as doubles. Cells that fail to parse are
     * skipped. @throws std::out_of_range for unknown columns.
     */
    std::vector<double> numericColumn(const std::string &name) const;

    /**
     * Rows matching a predicate on one column (e.g. benchmark == "bfs"),
     * extracted as doubles from @p valueColumn.
     */
    std::vector<double> numericColumnWhere(
        const std::string &valueColumn, const std::string &filterColumn,
        const std::string &filterValue) const;

    /** Distinct values of a column, in first-appearance order. */
    std::vector<std::string> distinct(const std::string &name) const;

    /** Serialize to CSV text (RFC-4180 quoting). */
    std::string toCsv() const;

    /** Write to a file. @throws std::runtime_error on I/O failure. */
    void save(const std::string &path) const;

    /** Parse CSV text. @throws std::runtime_error on malformed input. */
    static CsvTable parse(const std::string &text);

    /** Load from a file. */
    static CsvTable load(const std::string &path);

  private:
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

/** Quote a CSV field if it contains separators, quotes, or newlines. */
std::string csvQuote(const std::string &field);

/** Append @p fields to @p out as one CSV line (quoted, LF-terminated). */
void appendCsvLine(std::string &out, const std::vector<std::string> &fields);

} // namespace record
} // namespace sharp

#endif // SHARP_RECORD_CSV_HH
