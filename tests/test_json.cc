/**
 * @file
 * Tests for the JSON substrate: value model, parser, writer, and the
 * parse/write round trip SHARP's configs depend on.
 */

#include <gtest/gtest.h>

#include <limits>

#include "json/parser.hh"
#include "json/value.hh"
#include "json/writer.hh"

namespace
{

using namespace sharp::json;

TEST(JsonValue, ScalarConstructionAndAccess)
{
    EXPECT_TRUE(Value().isNull());
    EXPECT_TRUE(Value(true).asBool());
    EXPECT_DOUBLE_EQ(Value(3.5).asNumber(), 3.5);
    EXPECT_EQ(Value(42).asLong(), 42);
    EXPECT_EQ(Value("hi").asString(), "hi");
}

TEST(JsonValue, TypeMismatchThrows)
{
    EXPECT_THROW(Value(1.0).asString(), TypeError);
    EXPECT_THROW(Value("x").asNumber(), TypeError);
    EXPECT_THROW(Value().asArray(), TypeError);
    EXPECT_THROW(Value(false).members(), TypeError);
    // Numbers outside long's range, where a cast would be undefined.
    EXPECT_THROW(Value(1e300).asLong(), TypeError);
    EXPECT_THROW(Value(-1e19).asLong(), TypeError);
    EXPECT_THROW(Value(9223372036854775808.0).asLong(), TypeError);
    EXPECT_EQ(Value(-9223372036854775808.0).asLong(),
              std::numeric_limits<long>::min());
}

TEST(JsonValue, ObjectPreservesInsertionOrder)
{
    Value obj = Value::makeObject();
    obj.set("zeta", 1);
    obj.set("alpha", 2);
    obj.set("mid", 3);
    ASSERT_EQ(obj.size(), 3u);
    EXPECT_EQ(obj.members()[0].first, "zeta");
    EXPECT_EQ(obj.members()[1].first, "alpha");
    EXPECT_EQ(obj.members()[2].first, "mid");
}

TEST(JsonValue, SetReplacesInPlace)
{
    Value obj = Value::makeObject();
    obj.set("key", 1);
    obj.set("other", 2);
    obj.set("key", 9);
    EXPECT_EQ(obj.size(), 2u);
    EXPECT_DOUBLE_EQ(obj.at("key").asNumber(), 9.0);
    EXPECT_EQ(obj.members()[0].first, "key");
}

TEST(JsonValue, LookupHelpers)
{
    Value obj = Value::makeObject();
    obj.set("num", 1.5);
    obj.set("str", "text");
    obj.set("flag", true);
    EXPECT_DOUBLE_EQ(obj.getNumber("num", 0.0), 1.5);
    EXPECT_DOUBLE_EQ(obj.getNumber("missing", 7.0), 7.0);
    EXPECT_EQ(obj.getString("str", ""), "text");
    EXPECT_TRUE(obj.getBool("flag", false));
    EXPECT_TRUE(obj.contains("num"));
    EXPECT_FALSE(obj.contains("nope"));
    EXPECT_THROW(obj.at("nope"), std::out_of_range);
    // Past UINT64_MAX the cast would be undefined.
    obj.set("huge", 1e300);
    EXPECT_THROW(obj.getUint64("huge", 0), TypeError);
}

TEST(JsonParse, Scalars)
{
    EXPECT_TRUE(parse("null").isNull());
    EXPECT_TRUE(parse("true").asBool());
    EXPECT_FALSE(parse("false").asBool());
    EXPECT_DOUBLE_EQ(parse("-12.5e2").asNumber(), -1250.0);
    EXPECT_EQ(parse("\"abc\"").asString(), "abc");
}

TEST(JsonParse, NestedDocument)
{
    Value doc = parse(R"({
        "rule": "ks",
        "params": {"threshold": 0.1, "min": 20},
        "tags": ["hpc", "gpu"],
        "active": true
    })");
    EXPECT_EQ(doc.getString("rule", ""), "ks");
    EXPECT_DOUBLE_EQ(doc.at("params").getNumber("threshold", 0), 0.1);
    ASSERT_EQ(doc.at("tags").size(), 2u);
    EXPECT_EQ(doc.at("tags").asArray()[1].asString(), "gpu");
}

TEST(JsonParse, StringEscapes)
{
    EXPECT_EQ(parse(R"("a\nb\t\"q\"\\")").asString(), "a\nb\t\"q\"\\");
    EXPECT_EQ(parse(R"("Aé")").asString(), "A\xc3\xa9");
}

TEST(JsonParse, LineComments)
{
    Value doc = parse("// config\n{\"a\": 1 // inline\n}");
    EXPECT_DOUBLE_EQ(doc.getNumber("a", 0), 1.0);
}

TEST(JsonParse, ErrorsCarryPosition)
{
    try {
        parse("{\"a\": \n  bad}");
        FAIL() << "expected ParseError";
    } catch (const ParseError &err) {
        EXPECT_EQ(err.line, 2u);
    }
}

TEST(JsonParse, RejectsMalformedInput)
{
    EXPECT_THROW(parse(""), ParseError);
    EXPECT_THROW(parse("{"), ParseError);
    EXPECT_THROW(parse("[1,]"), ParseError);
    EXPECT_THROW(parse("{\"a\" 1}"), ParseError);
    EXPECT_THROW(parse("\"unterminated"), ParseError);
    EXPECT_THROW(parse("12 34"), ParseError);
    EXPECT_THROW(parse("01x"), ParseError);
    EXPECT_THROW(parse("tru"), ParseError);
}

TEST(JsonParse, RejectsExcessiveNesting)
{
    std::string deep(300, '[');
    deep += std::string(300, ']');
    EXPECT_THROW(parse(deep), ParseError);

    std::string deep_obj;
    for (int i = 0; i < 300; ++i)
        deep_obj += "{\"k\":";
    deep_obj += "0";
    deep_obj += std::string(300, '}');
    EXPECT_THROW(parse(deep_obj), ParseError);
}

TEST(JsonParse, RejectsTruncatedDocuments)
{
    // Every proper prefix of a valid document must error, not hang or
    // crash — this is the fuzz-shaped surface a config loader sees.
    const std::string doc =
        "{\"rules\": [\"ks\", {\"t\": 0.1, \"ok\": true}], \"n\": 12}";
    for (size_t len = 0; len < doc.size(); ++len)
        EXPECT_THROW(parse(doc.substr(0, len)), ParseError) << len;
    EXPECT_NO_THROW(parse(doc));
}

TEST(JsonParse, RejectsBadEscapes)
{
    EXPECT_THROW(parse("\"\\q\""), ParseError);
    EXPECT_THROW(parse("\"\\u12\""), ParseError);
    EXPECT_THROW(parse("\"\\u12zz\""), ParseError);
    EXPECT_THROW(parse("\"\\\""), ParseError);
    EXPECT_THROW(parse("{\"a\\'\": 1}"), ParseError);
}

TEST(JsonParse, RejectsDuplicateKeys)
{
    // Silently keeping either value would make config typos
    // unobservable, so duplicates are a parse error.
    EXPECT_THROW(parse("{\"a\": 1, \"a\": 2}"), ParseError);
    EXPECT_THROW(parse("{\"a\": 1, \"b\": {\"c\": 0, \"c\": 1}}"),
                 ParseError);
    try {
        parse("{\"seed\": 1, \"seed\": 2}");
        FAIL() << "expected ParseError";
    } catch (const ParseError &err) {
        EXPECT_NE(std::string(err.what()).find("seed"),
                  std::string::npos);
    }
    // Same key at different depths is fine.
    EXPECT_NO_THROW(parse("{\"a\": {\"a\": 1}}"));
}

TEST(JsonWrite, CompactForm)
{
    Value obj = Value::makeObject();
    obj.set("a", 1);
    Value arr = Value::makeArray();
    arr.append(true);
    arr.append(nullptr);
    obj.set("list", std::move(arr));
    EXPECT_EQ(write(obj), "{\"a\":1,\"list\":[true,null]}");
}

TEST(JsonWrite, EscapesControlCharacters)
{
    EXPECT_EQ(write(Value("a\nb")), "\"a\\nb\"");
    EXPECT_EQ(write(Value(std::string(1, '\x01'))), "\"\\u0001\"");
}

TEST(JsonWrite, NumbersRoundTripExactly)
{
    for (double v : {0.1, 1.0 / 3.0, 1e-17, 123456789.123, -0.25}) {
        Value parsed = parse(write(Value(v)));
        EXPECT_DOUBLE_EQ(parsed.asNumber(), v) << "value " << v;
    }
}

TEST(JsonRoundTrip, ParseWriteParseIsIdentity)
{
    const char *text = R"({
        "experiment": "fig6",
        "machines": ["machine1", "machine3"],
        "thresholds": {"t1": 0.05, "t2": 0.01},
        "runs": 1000,
        "nested": [[1, 2], [3, [4]]],
        "note": "KS rule saves ~90%"
    })";
    Value first = parse(text);
    Value second = parse(writePretty(first));
    EXPECT_EQ(first, second);
    Value third = parse(write(first));
    EXPECT_EQ(first, third);
}

TEST(JsonRoundTrip, EmptyContainers)
{
    EXPECT_EQ(write(parse("[]")), "[]");
    EXPECT_EQ(write(parse("{}")), "{}");
}

} // anonymous namespace
