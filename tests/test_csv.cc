/**
 * @file
 * Tests for the tidy CSV writer and, through tests/support, the walk
 * that reads CSV back.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "record/csv.hh"
#include "support/csv.hh"

namespace
{

using namespace sharp::record;
using namespace sharp::support;

TEST(CsvQuote, OnlyWhenNeeded)
{
    EXPECT_EQ(csvQuote("plain"), "plain");
    EXPECT_EQ(csvQuote("with,comma"), "\"with,comma\"");
    EXPECT_EQ(csvQuote("with\"quote"), "\"with\"\"quote\"");
    EXPECT_EQ(csvQuote("line\nbreak"), "\"line\nbreak\"");
    EXPECT_EQ(csvQuote(""), "");
}

TEST(CsvTable, BuildAndAccess)
{
    CsvTable table({"run", "time"});
    table.addRow({"0", "1.5"});
    table.addRow({"1", "2.5"});
    EXPECT_EQ(table.numRows(), 2u);
    EXPECT_EQ(table.cell(1, 1), "2.5");
    EXPECT_EQ(findColumn(table.columns(), "time").value(), 1u);
    EXPECT_FALSE(findColumn(table.columns(), "nope").has_value());
}

TEST(CsvTable, RejectsRaggedRows)
{
    CsvTable table({"a", "b"});
    EXPECT_THROW(table.addRow({"only-one"}), std::invalid_argument);
}

TEST(CsvTable, NumericColumnSkipsNonNumbers)
{
    CsvTable table({"v"});
    table.addRow({"1.5"});
    table.addRow({"oops"});
    table.addRow({"2.5"});
    table.addRow({""});
    auto values = numericColumn(table, "v");
    ASSERT_EQ(values.size(), 2u);
    EXPECT_DOUBLE_EQ(values[0], 1.5);
    EXPECT_DOUBLE_EQ(values[1], 2.5);
    EXPECT_THROW(numericColumn(table, "w"), std::out_of_range);
}

TEST(CsvTable, FilteredNumericColumn)
{
    CsvTable table({"bench", "time"});
    table.addRow({"bfs", "1.0"});
    table.addRow({"lud", "9.0"});
    table.addRow({"bfs", "2.0"});
    auto bfs = numericColumnWhere(table, "time", "bench", "bfs");
    ASSERT_EQ(bfs.size(), 2u);
    EXPECT_DOUBLE_EQ(bfs[1], 2.0);
}

TEST(CsvTable, DistinctPreservesFirstAppearance)
{
    CsvTable table({"m"});
    table.addRow({"machine3"});
    table.addRow({"machine1"});
    table.addRow({"machine3"});
    auto distinct = sharp::support::distinct(table, "m");
    ASSERT_EQ(distinct.size(), 2u);
    EXPECT_EQ(distinct[0], "machine3");
    EXPECT_EQ(distinct[1], "machine1");
}

TEST(CsvParse, SimpleDocument)
{
    CsvTable table = parseCsv("a,b\n1,2\n3,4\n");
    EXPECT_EQ(table.columns().size(), 2u);
    EXPECT_EQ(table.numRows(), 2u);
    EXPECT_EQ(table.cell(0, 0), "1");
    EXPECT_EQ(table.cell(1, 1), "4");
}

TEST(CsvParse, QuotedFieldsWithSeparatorsAndQuotes)
{
    CsvTable table = parseCsv(
        "name,note\n\"bfs, cuda\",\"said \"\"fast\"\"\"\n");
    EXPECT_EQ(table.cell(0, 0), "bfs, cuda");
    EXPECT_EQ(table.cell(0, 1), "said \"fast\"");
}

TEST(CsvParse, EmbeddedNewlinesInQuotes)
{
    CsvTable table = parseCsv("a,b\n\"line1\nline2\",x\n");
    EXPECT_EQ(table.cell(0, 0), "line1\nline2");
}

TEST(CsvParse, CrLfLineEndings)
{
    CsvTable table = parseCsv("a,b\r\n1,2\r\n");
    EXPECT_EQ(table.numRows(), 1u);
    EXPECT_EQ(table.cell(0, 1), "2");
}

TEST(CsvParse, MissingTrailingNewline)
{
    CsvTable table = parseCsv("a\n1");
    EXPECT_EQ(table.numRows(), 1u);
}

TEST(CsvParse, EmptyFieldsPreserved)
{
    CsvTable table = parseCsv("a,b,c\n,,\n");
    EXPECT_EQ(table.numRows(), 1u);
    EXPECT_EQ(table.cell(0, 0), "");
    EXPECT_EQ(table.cell(0, 2), "");
}

TEST(CsvParse, RejectsMalformedInput)
{
    EXPECT_THROW(parseCsv(""), std::runtime_error);
    EXPECT_THROW(parseCsv("a,b\n\"open\n"), std::runtime_error);
    EXPECT_THROW(parseCsv("a,b\n1\n"), std::runtime_error);
}

TEST(CsvRoundTrip, ComplexContentSurvives)
{
    CsvTable table({"k", "v"});
    table.addRow({"comma", "a,b"});
    table.addRow({"quote", "say \"hi\""});
    table.addRow({"newline", "x\ny"});
    table.addRow({"plain", "simple"});
    CsvTable again = parseCsv(table.toCsv());
    ASSERT_EQ(again.numRows(), table.numRows());
    for (size_t r = 0; r < table.numRows(); ++r) {
        for (size_t c = 0; c < 2; ++c)
            EXPECT_EQ(again.cell(r, c), table.cell(r, c));
    }
}

TEST(CsvFiles, SaveAndLoad)
{
    namespace fs = std::filesystem;
    fs::path path = fs::temp_directory_path() / "sharp_test_csv.csv";
    CsvTable table({"x"});
    table.addRow({"1"});
    table.save(path.string());
    CsvTable loaded = loadCsv(path.string());
    EXPECT_EQ(loaded.cell(0, 0), "1");
    fs::remove(path);
    EXPECT_THROW(loadCsv("/no/such/dir/file.csv"),
                 std::runtime_error);
}

} // anonymous namespace
