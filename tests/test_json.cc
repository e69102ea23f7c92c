/**
 * @file
 * obs::JsonWriter: the exact text of escapes, integers and doubles.
 * Every metrics document, bench record and fuzz report goes through
 * it, and their bytes are compared across runs, so each case pins the
 * output character for character.  Doubles must read as printf's
 * "%.4g" would print them.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <random>
#include <string>

#include "obs/json.h"

namespace cheri
{
namespace
{

std::string
quoted(std::string_view s)
{
    obs::JsonWriter w;
    w.value(s);
    return w.str();
}

std::string
number(double v)
{
    obs::JsonWriter w;
    w.value(v);
    return w.str();
}

std::string
printfG4(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4g", v);
    return buf;
}

TEST(JsonWriterTest, PlainStringIsCopiedWhole)
{
    EXPECT_EQ(quoted(""), "\"\"");
    EXPECT_EQ(quoted("oracle_runs"), "\"oracle_runs\"");
    EXPECT_EQ(quoted("cap[t 0x0-0x100 @0x10 Grw]"),
              "\"cap[t 0x0-0x100 @0x10 Grw]\"");
}

TEST(JsonWriterTest, EscapesQuoteBackslashAndWhitespace)
{
    EXPECT_EQ(quoted("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(quoted("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(quoted("l1\nl2\r\tx"), "\"l1\\nl2\\r\\tx\"");
    // An escape at the start, and plain text after one.
    EXPECT_EQ(quoted("\"quoted\" tail"), "\"\\\"quoted\\\" tail\"");
}

TEST(JsonWriterTest, ControlCharactersAreUnicodeEscapes)
{
    EXPECT_EQ(quoted(std::string_view("\0", 1)), "\"\\u0000\"");
    EXPECT_EQ(quoted("\x01"), "\"\\u0001\"");
    EXPECT_EQ(quoted("x\x1fy"), "\"x\\u001fy\"");
    // DEL and bytes above 0x7f pass through unchanged.
    EXPECT_EQ(quoted("\x7f\xc3\xa9"), "\"\x7f\xc3\xa9\"");
}

TEST(JsonWriterTest, IntegerExtremes)
{
    obs::JsonWriter w;
    w.beginArray()
        .value(u64{0})
        .value(std::numeric_limits<u64>::max())
        .value(s64{0})
        .value(s64{-1})
        .value(std::numeric_limits<s64>::min())
        .value(std::numeric_limits<s64>::max())
        .value(-7)
        .value(7u)
        .endArray();
    EXPECT_EQ(w.str(), "[0,18446744073709551615,0,-1,-9223372036854775808,"
                       "9223372036854775807,-7,7]");
}

TEST(JsonWriterTest, DoublesPrintFourSignificantDigits)
{
    EXPECT_EQ(number(0.0), "0");
    EXPECT_EQ(number(1e-05), "1e-05");
    EXPECT_EQ(number(0.99998), "1");
    EXPECT_EQ(number(99995), "1e+05");
    EXPECT_EQ(number(0.5), "0.5");
    EXPECT_EQ(number(1.0 / 3), "0.3333");
    EXPECT_EQ(number(123456789), "1.235e+08");
    for (double v : {0.0, -0.0, 1e-05, 0.99998, 99995.0, 9.9995, 0.0001,
                     1e21, 5e-324, std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()})
        EXPECT_EQ(number(v), printfG4(v)) << v;
}

TEST(JsonWriterTest, DoublesMatchPrintfOnRandomValues)
{
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int i = 0; i < 20000; ++i) {
        double ratio = unit(rng);
        double scaled = ratio * static_cast<double>(rng() % 1000000);
        ASSERT_EQ(number(ratio), printfG4(ratio)) << ratio;
        ASSERT_EQ(number(scaled), printfG4(scaled)) << scaled;
    }
}

TEST(JsonWriterTest, CommasAndKeys)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("a").value(u64{1});
    w.key("b").beginArray().value(true).value(false).endArray();
    w.key("c\n").beginObject().endObject();
    w.endObject();
    EXPECT_EQ(w.str(), "{\"a\":1,\"b\":[true,false],\"c\\n\":{}}");
}

} // namespace
} // namespace cheri
