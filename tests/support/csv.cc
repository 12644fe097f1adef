#include "support/csv.hh"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "check/diagnostic.hh"
#include "util/string_utils.hh"

namespace sharp
{
namespace support
{

using record::CsvTable;

namespace
{

CsvTable
readCsv(std::istream &in)
{
    check::CheckResult findings;
    std::optional<CsvTable> table;
    record::CsvVisitor visit;
    visit.header = [&](const record::CsvRow &header) {
        table.emplace(header.cells);
    };
    visit.row = [&](const record::CsvRow &row) { table->addRow(row.cells); };
    record::walkCsv(in, findings, visit);
    if (!findings.ok()) {
        throw std::runtime_error("CSV parse error at " +
                                 findings.diagnostics().front().render());
    }
    return std::move(*table);
}

size_t
column(const CsvTable &table, const std::string &name)
{
    auto index = record::findColumn(table.columns(), name);
    if (!index)
        throw std::out_of_range("no CSV column named '" + name + "'");
    return *index;
}

} // anonymous namespace

CsvTable
parseCsv(const std::string &text)
{
    std::istringstream in(text);
    return readCsv(in);
}

CsvTable
loadCsv(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open CSV file: " + path);
    return readCsv(in);
}

std::vector<double>
numericColumn(const CsvTable &table, const std::string &name)
{
    size_t index = column(table, name);
    std::vector<double> out;
    for (size_t r = 0; r < table.numRows(); ++r) {
        if (auto value = util::parseDouble(table.cell(r, index)))
            out.push_back(*value);
    }
    return out;
}

std::vector<double>
numericColumnWhere(const CsvTable &table, const std::string &valueColumn,
                   const std::string &filterColumn,
                   const std::string &filterValue)
{
    size_t value_index = column(table, valueColumn);
    size_t filter_index = column(table, filterColumn);
    std::vector<double> out;
    for (size_t r = 0; r < table.numRows(); ++r) {
        if (table.cell(r, filter_index) != filterValue)
            continue;
        if (auto value = util::parseDouble(table.cell(r, value_index)))
            out.push_back(*value);
    }
    return out;
}

std::vector<std::string>
distinct(const CsvTable &table, const std::string &name)
{
    size_t index = column(table, name);
    std::vector<std::string> out;
    for (size_t r = 0; r < table.numRows(); ++r) {
        const std::string &value = table.cell(r, index);
        if (std::find(out.begin(), out.end(), value) == out.end())
            out.push_back(value);
    }
    return out;
}

} // namespace support
} // namespace sharp
