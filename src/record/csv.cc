#include "record/csv.hh"

#include <fstream>
#include <stdexcept>

#include "check/diagnostic.hh"

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

std::optional<size_t>
findColumn(const std::vector<std::string> &header, const std::string &name)
{
    for (size_t i = 0; i < header.size(); ++i) {
        if (header[i] == name)
            return i;
    }
    return std::nullopt;
}

namespace
{

/** Where walkCsv() stands inside the current field. */
enum class Field
{
    /** Nothing of it read yet. */
    Start,
    /** Inside an unquoted field. */
    Plain,
    /** Inside quotes. */
    Quoted,
    /** A quote inside quotes: an escaped quote or the closing one. */
    QuoteSeen,
    /** After the closing quote. */
    Closed,
};

} // anonymous namespace

void
walkCsv(std::istream &in, check::CheckResult &out, const CsvVisitor &visit)
{
    CsvRow row;
    // Fields begun in the current record; row's vectors keep the
    // storage of longer records so their strings are reused.
    size_t fields = 0;
    bool bad = false;
    bool headerRead = false;
    bool headerBad = false;
    size_t width = 0;
    Field state = Field::Start;
    json::Location here{1, 0};
    json::Location quoteAt;

    auto beginField = [&](json::Location where) {
        if (fields == row.cells.size()) {
            row.cells.emplace_back();
            row.at.emplace_back();
        } else {
            row.cells[fields].clear();
        }
        row.at[fields++] = where;
        state = Field::Start;
    };
    auto syntax = [&](json::Location where, const std::string &message,
                      const char *hint) {
        // One finding per record: the rest of it is not trustworthy.
        if (!bad)
            out.report(check::Severity::Error, where, "csv-syntax", message,
                       hint);
        bad = true;
    };
    auto endRecord = [&]() {
        row.cells.resize(fields);
        row.at.resize(fields);
        if (!headerRead) {
            headerRead = true;
            headerBad = bad;
            width = fields;
            if (!bad)
                visit.header(row);
        } else if (bad) {
            // Its field count means nothing past the syntax error.
        } else if (fields != width) {
            out.report(check::Severity::Error, row.at.front(),
                       "csv-ragged-row",
                       "row has " + std::to_string(fields) +
                           " fields, the header has " +
                           std::to_string(width));
        } else if (!headerBad) {
            visit.row(row);
        }
        fields = 0;
        bad = false;
        state = Field::Start;
    };
    const char *const quoteHint =
        "quote the whole field, and write a quote inside it as \"\"";

    std::vector<char> block(1 << 16);
    while (in.read(block.data(), static_cast<std::streamsize>(block.size())) ||
           in.gcount() > 0) {
        size_t got = static_cast<size_t>(in.gcount());
        for (size_t i = 0; i < got; ++i) {
            char c = block[i];
            ++here.column;
            if (state == Field::Quoted) {
                if (c == '"')
                    state = Field::QuoteSeen;
                else
                    row.cells[fields - 1].push_back(c);
            } else if (state == Field::QuoteSeen && c == '"') {
                row.cells[fields - 1].push_back('"');
                state = Field::Quoted;
            } else {
                if (state == Field::QuoteSeen)
                    state = Field::Closed;
                switch (c) {
                case ',':
                    if (fields == 0)
                        beginField(here);
                    beginField({here.line, here.column + 1});
                    break;
                case '\n':
                    if (fields > 0)
                        endRecord();
                    break;
                case '\r':
                    break; // swallowed; the \n ends the record
                case '"':
                    if (fields == 0)
                        beginField(here);
                    if (state == Field::Start) {
                        state = Field::Quoted;
                        quoteAt = here;
                        break;
                    }
                    syntax(here,
                           state == Field::Plain
                               ? "quote inside an unquoted field"
                               : "quote after a closing quote",
                           quoteHint);
                    row.cells[fields - 1].push_back(c);
                    break;
                default:
                    if (fields == 0)
                        beginField(here);
                    if (state == Field::Closed)
                        syntax(here, "text after a closing quote",
                               quoteHint);
                    row.cells[fields - 1].push_back(c);
                    state = Field::Plain;
                    break;
                }
            }
            if (c == '\n') {
                ++here.line;
                here.column = 0;
            }
        }
    }
    if (state == Field::Quoted) {
        syntax(quoteAt, "unterminated quote: the field runs to the end of "
                        "the file",
               quoteHint);
    }
    if (fields > 0)
        endRecord();
    if (!headerRead) {
        out.report(check::Severity::Error, json::Location{1, 1}, "csv-empty",
                   "no header row: the file holds no CSV record");
    }
}

} // namespace record
} // namespace sharp
