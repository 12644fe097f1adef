/**
 * @file
 * Tidy-data CSV reading and writing.
 *
 * "All metrics and factors are logged in a 'tidy data' CSV file to
 * facilitate statistical processing ... and records each concurrent
 * instance in its own row." (§IV-d). Fields are RFC-4180 quoted when
 * needed. One walk reads CSV text back, for ingest (`report`,
 * `compare`, `gate`, `baseline capture`), trace replay and `sharp
 * check` alike: it streams, handles quoted fields, embedded
 * separators, escaped quotes, and both LF and CRLF line endings, and
 * reports what it cannot read at its line and column.
 */

#ifndef SHARP_RECORD_CSV_HH
#define SHARP_RECORD_CSV_HH

#include <functional>
#include <istream>
#include <optional>
#include <string>
#include <vector>

#include "json/value.hh"

namespace sharp
{
namespace check
{
class CheckResult;
} // namespace check

namespace record
{

/**
 * An in-memory CSV table for writing: a header row plus data rows of
 * strings.
 */
class CsvTable
{
  public:
    CsvTable() = default;

    /** Create with column names. */
    explicit CsvTable(std::vector<std::string> columns);

    /** Column names. */
    const std::vector<std::string> &columns() const { return header; }

    /** Number of data rows. */
    size_t numRows() const { return rows.size(); }

    /** Append a row (must match the column count). */
    void addRow(std::vector<std::string> row);

    /** Cell access. */
    const std::string &cell(size_t row, size_t col) const;

    /** Serialize to CSV text (RFC-4180 quoting). */
    std::string toCsv() const;

    /** Write to a file. @throws std::runtime_error on I/O failure. */
    void save(const std::string &path) const;

  private:
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

/** Quote a CSV field if it contains separators, quotes, or newlines. */
std::string csvQuote(const std::string &field);

/** Append @p fields to @p out as one CSV line (quoted, LF-terminated). */
void appendCsvLine(std::string &out, const std::vector<std::string> &fields);

/** One record of CSV text, as walkCsv() hands it to its visitor. */
struct CsvRow
{
    /** The fields, unquoted. */
    std::vector<std::string> cells;
    /** Where each field starts: 1-based line and column. */
    std::vector<json::Location> at;
};

/** What walkCsv() calls: the header once, then each data row. */
struct CsvVisitor
{
    std::function<void(const CsvRow &)> header;
    std::function<void(const CsvRow &)> row;
};

/**
 * The one CSV reader: stream @p in in blocks, split it into records by
 * RFC 4180 (a record may span lines inside a quoted field; LF and CRLF
 * end one; blank lines are skipped), hand the first record to
 * @p visit.header and each later one to @p visit.row, in order. It
 * never throws (a visitor may); what it cannot read goes to @p out at
 * its line and column, as errors:
 * - `csv-syntax`: an unterminated quote, a quote inside an unquoted
 *   field, or text after a closing quote;
 * - `csv-ragged-row`: a row whose field count differs from the
 *   header's;
 * - `csv-empty`: no header.
 * A record with an error is not visited (a syntax error also stops
 * its fields being counted), and no row is visited after a header
 * with one.
 */
void walkCsv(std::istream &in, check::CheckResult &out,
             const CsvVisitor &visit);

/**
 * The index of the first header cell equal to @p name, if any: how a
 * reader finds a column in the header walkCsv() hands it.
 */
std::optional<size_t> findColumn(const std::vector<std::string> &header,
                                 const std::string &name);

} // namespace record
} // namespace sharp

#endif // SHARP_RECORD_CSV_HH
