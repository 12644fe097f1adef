/**
 * @file
 * CSV helpers only the unit tests use: a parse and a load that throw
 * on malformed text, and column extraction from a table. Shipped code
 * reads CSV through record::walkCsv(), the walk `sharp check` runs,
 * and these are built on it.
 */

#ifndef SHARP_TESTS_SUPPORT_CSV_HH
#define SHARP_TESTS_SUPPORT_CSV_HH

#include <string>
#include <vector>

#include "record/csv.hh"

namespace sharp
{
namespace support
{

/**
 * record::walkCsv() of text that must be well-formed, as a table.
 * @throws std::runtime_error naming the first finding.
 */
record::CsvTable parseCsv(const std::string &text);

/**
 * parseCsv() of the file at @p path.
 * @throws std::runtime_error when it cannot be read.
 */
record::CsvTable loadCsv(const std::string &path);

/**
 * Column @p name as doubles; cells that fail to parse are skipped.
 * @throws std::out_of_range for unknown columns.
 */
std::vector<double> numericColumn(const record::CsvTable &table,
                                  const std::string &name);

/**
 * The doubles of @p valueColumn in the rows whose @p filterColumn
 * holds @p filterValue (e.g. benchmark == "bfs").
 */
std::vector<double> numericColumnWhere(const record::CsvTable &table,
                                       const std::string &valueColumn,
                                       const std::string &filterColumn,
                                       const std::string &filterValue);

/** Distinct values of a column, in first-appearance order. */
std::vector<std::string> distinct(const record::CsvTable &table,
                                  const std::string &name);

} // namespace support
} // namespace sharp

#endif // SHARP_TESTS_SUPPORT_CSV_HH
