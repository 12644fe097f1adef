#include "record/csv.hh"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/string_utils.hh"

namespace sharp
{
namespace record
{

CsvTable::CsvTable(std::vector<std::string> columns)
    : header(std::move(columns))
{
    if (header.empty())
        throw std::invalid_argument("CsvTable requires >= 1 column");
}

std::optional<size_t>
CsvTable::columnIndex(const std::string &name) const
{
    for (size_t i = 0; i < header.size(); ++i) {
        if (header[i] == name)
            return i;
    }
    return std::nullopt;
}

void
CsvTable::addRow(std::vector<std::string> row)
{
    if (row.size() != header.size()) {
        throw std::invalid_argument(
            "CSV row has " + std::to_string(row.size()) +
            " cells, expected " + std::to_string(header.size()));
    }
    rows.push_back(std::move(row));
}

const std::string &
CsvTable::cell(size_t row_idx, size_t col) const
{
    return rows.at(row_idx).at(col);
}

std::vector<double>
CsvTable::numericColumn(const std::string &name) const
{
    auto idx = columnIndex(name);
    if (!idx)
        throw std::out_of_range("no CSV column named '" + name + "'");
    std::vector<double> out;
    out.reserve(rows.size());
    for (const auto &row : rows) {
        if (auto value = util::parseDouble(row[*idx]))
            out.push_back(*value);
    }
    return out;
}

std::vector<double>
CsvTable::numericColumnWhere(const std::string &valueColumn,
                             const std::string &filterColumn,
                             const std::string &filterValue) const
{
    auto value_idx = columnIndex(valueColumn);
    auto filter_idx = columnIndex(filterColumn);
    if (!value_idx)
        throw std::out_of_range("no CSV column named '" + valueColumn +
                                "'");
    if (!filter_idx)
        throw std::out_of_range("no CSV column named '" + filterColumn +
                                "'");
    std::vector<double> out;
    for (const auto &row : rows) {
        if (row[*filter_idx] != filterValue)
            continue;
        if (auto value = util::parseDouble(row[*value_idx]))
            out.push_back(*value);
    }
    return out;
}

std::vector<std::string>
CsvTable::distinct(const std::string &name) const
{
    auto idx = columnIndex(name);
    if (!idx)
        throw std::out_of_range("no CSV column named '" + name + "'");
    std::vector<std::string> out;
    for (const auto &row : rows) {
        const std::string &value = row[*idx];
        bool seen = false;
        for (const auto &existing : out) {
            if (existing == value) {
                seen = true;
                break;
            }
        }
        if (!seen)
            out.push_back(value);
    }
    return out;
}

std::string
csvQuote(const std::string &field)
{
    bool needs_quote = field.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs_quote)
        return field;
    std::string out = "\"";
    for (char c : field) {
        if (c == '"')
            out += "\"\"";
        else
            out.push_back(c);
    }
    out.push_back('"');
    return out;
}

void
appendCsvLine(std::string &out, const std::vector<std::string> &fields)
{
    for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0)
            out.push_back(',');
        const std::string &field = fields[i];
        if (field.find_first_of(",\"\n\r") == std::string::npos)
            out += field;
        else
            out += csvQuote(field);
    }
    out.push_back('\n');
}

std::string
CsvTable::toCsv() const
{
    std::string out;
    appendCsvLine(out, header);
    for (const auto &row : rows)
        appendCsvLine(out, row);
    return out;
}

void
CsvTable::save(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot open CSV file for writing: " +
                                 path);
    out << toCsv();
    if (!out)
        throw std::runtime_error("error writing CSV file: " + path);
}

CsvTable
CsvTable::parse(const std::string &text)
{
    std::vector<std::vector<std::string>> records;
    std::vector<std::string> current;
    std::string field;
    bool in_quotes = false;
    bool field_started = false;

    auto end_field = [&]() {
        current.push_back(field);
        field.clear();
        field_started = false;
    };
    auto end_record = [&]() {
        if (field_started || !field.empty() || !current.empty()) {
            end_field();
            records.push_back(current);
            current.clear();
        }
    };

    for (size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        if (in_quotes) {
            if (c == '"') {
                if (i + 1 < text.size() && text[i + 1] == '"') {
                    field.push_back('"');
                    ++i;
                } else {
                    in_quotes = false;
                }
            } else {
                field.push_back(c);
            }
            continue;
        }
        switch (c) {
          case '"':
            in_quotes = true;
            field_started = true;
            break;
          case ',':
            end_field();
            field_started = true; // next field exists even if empty
            break;
          case '\r':
            break; // swallow; the \n handles record end
          case '\n':
            end_record();
            break;
          default:
            field.push_back(c);
            field_started = true;
        }
    }
    end_record(); // final record without trailing newline
    if (in_quotes)
        throw std::runtime_error("CSV parse error: unterminated quote");
    if (records.empty())
        throw std::runtime_error("CSV parse error: no header row");

    CsvTable table(records.front());
    for (size_t r = 1; r < records.size(); ++r) {
        if (records[r].size() != table.header.size()) {
            throw std::runtime_error(
                "CSV parse error: row " + std::to_string(r) + " has " +
                std::to_string(records[r].size()) + " fields, expected " +
                std::to_string(table.header.size()));
        }
        table.rows.push_back(std::move(records[r]));
    }
    return table;
}

CsvTable
CsvTable::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open CSV file: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse(buf.str());
}

} // namespace record
} // namespace sharp
