/**
 * @file
 * Tests for sharp::util — string helpers, table formatting, time
 * formatting, and message capture.
 */

#include <gtest/gtest.h>

#include "util/message.hh"
#include "util/string_utils.hh"
#include "util/table.hh"
#include "util/time_utils.hh"

namespace
{

using namespace sharp::util;

TEST(StringSplit, BasicFields)
{
    auto parts = split("a,b,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
}

TEST(StringSplit, PreservesEmptyFields)
{
    auto parts = split(",x,,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "");
    EXPECT_EQ(parts[1], "x");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "");
}

TEST(StringSplit, SingleFieldWithoutDelimiter)
{
    auto parts = split("alone", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "alone");
}

TEST(StringJoin, RoundTripsWithSplit)
{
    std::vector<std::string> parts = {"x", "", "yz"};
    EXPECT_EQ(join(parts, ","), "x,,yz");
    EXPECT_EQ(split(join(parts, ","), ','), parts);
}

TEST(StringTrim, RemovesSurroundingWhitespace)
{
    EXPECT_EQ(trim("  hello\t\n"), "hello");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim(" \t "), "");
    EXPECT_EQ(trim("inner space kept"), "inner space kept");
}

TEST(StringPredicates, StartsAndEndsWith)
{
    EXPECT_TRUE(startsWith("execution_time", "exec"));
    EXPECT_FALSE(startsWith("exec", "execution"));
    EXPECT_TRUE(endsWith("report.md", ".md"));
    EXPECT_FALSE(endsWith("md", "report.md"));
}

TEST(StringCase, ToLower)
{
    EXPECT_EQ(toLower("Hotspot-CUDA"), "hotspot-cuda");
}

TEST(ParseDouble, AcceptsNumbersRejectsJunk)
{
    EXPECT_DOUBLE_EQ(parseDouble("3.46").value(), 3.46);
    EXPECT_DOUBLE_EQ(parseDouble(" -2e3 ").value(), -2000.0);
    EXPECT_FALSE(parseDouble("12abc").has_value());
    EXPECT_FALSE(parseDouble("").has_value());
    EXPECT_FALSE(parseDouble("nanx").has_value());
}

TEST(ParseLong, AcceptsIntegersRejectsFractions)
{
    EXPECT_EQ(parseLong("100").value(), 100);
    EXPECT_EQ(parseLong("-5").value(), -5);
    EXPECT_FALSE(parseLong("1.5").has_value());
    EXPECT_FALSE(parseLong("").has_value());
}

TEST(ParseUint64, TakesTheFullWidthRejectsSignsAndOverflow)
{
    EXPECT_EQ(parseUint64("0").value(), 0u);
    EXPECT_EQ(parseUint64("18446744073709551615").value(), UINT64_MAX);
    EXPECT_FALSE(parseUint64("18446744073709551616").has_value());
    // strtoull would wrap "-1" to 2^64 - 1.
    EXPECT_FALSE(parseUint64("-1").has_value());
    EXPECT_FALSE(parseUint64("+1").has_value());
    EXPECT_FALSE(parseUint64(" 1").has_value());
    EXPECT_FALSE(parseUint64("1x").has_value());
    EXPECT_FALSE(parseUint64("").has_value());
}

TEST(ReplaceAll, ReplacesEveryOccurrence)
{
    EXPECT_EQ(replaceAll("a-b-c", "-", "+"), "a+b+c");
    EXPECT_EQ(replaceAll("aaa", "aa", "b"), "ba");
    EXPECT_EQ(replaceAll("unchanged", "zz", "x"), "unchanged");
}

TEST(FormatDouble, StripsTrailingZeros)
{
    EXPECT_EQ(formatDouble(3.4600, 4), "3.46");
    EXPECT_EQ(formatDouble(2.0, 3), "2");
    EXPECT_EQ(formatDouble(0.5, 2), "0.5");
    EXPECT_EQ(formatDouble(-0.0, 2), "0");
}

TEST(FormatDuration, PicksSensibleUnits)
{
    EXPECT_EQ(formatDuration(0.000002), "2 us");
    EXPECT_EQ(formatDuration(0.532), "532 ms");
    EXPECT_EQ(formatDuration(3.46), "3.46 s");
    EXPECT_EQ(formatDuration(133.0), "2 m 13 s");
}

TEST(Stopwatch, MeasuresElapsedTime)
{
    Stopwatch watch;
    double t0 = watch.elapsedSeconds();
    EXPECT_GE(t0, 0.0);
    // Monotonic: successive reads never go backwards.
    EXPECT_GE(watch.elapsedSeconds(), t0);
}

TEST(IsoTimestamp, HasExpectedShape)
{
    std::string ts = isoTimestamp();
    ASSERT_EQ(ts.size(), 20u);
    EXPECT_EQ(ts[4], '-');
    EXPECT_EQ(ts[10], 'T');
    EXPECT_EQ(ts.back(), 'Z');
}

TEST(TextTable, RendersAlignedAscii)
{
    TextTable table({"name", "value"});
    table.addRow({"alpha", "1.5"});
    table.addRow({"b", "20"});
    std::string out = table.render();
    EXPECT_NE(out.find("| alpha |"), std::string::npos);
    EXPECT_NE(out.find("+-------+"), std::string::npos);
    // Numeric cells are right-aligned.
    EXPECT_NE(out.find("|   1.5 |"), std::string::npos);
}

TEST(TextTable, RendersMarkdown)
{
    TextTable table({"k", "v"});
    table.addRow({"x", "1"});
    std::string md = table.renderMarkdown();
    EXPECT_NE(md.find("| k | v |"), std::string::npos);
    EXPECT_NE(md.find("|---|"), std::string::npos);
}

TEST(TextTable, CountsRows)
{
    TextTable table({"a"});
    EXPECT_EQ(table.numRows(), 0u);
    table.addRow({"1"});
    table.addRow({"2"});
    EXPECT_EQ(table.numRows(), 2u);
}

TEST(Messages, CaptureRoutesWarnAndInform)
{
    std::string sink;
    setMessageCapture(&sink);
    warn("watch out %d", 42);
    inform("status %s", "ok");
    setMessageCapture(nullptr);
    EXPECT_NE(sink.find("warn: watch out 42"), std::string::npos);
    EXPECT_NE(sink.find("info: status ok"), std::string::npos);
}

} // anonymous namespace
