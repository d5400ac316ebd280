/** JSON tests: the JsonWriter every output stream goes
 *  through (separators, escaping, null for non-finite numbers,
 *  nesting), and the escaping/number helpers it shares with the
 *  result cache's reader. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/json.hh"
#include "sweep/sweep.hh"

namespace rtu {
namespace {

TEST(JsonEscape, PlainIdentifiersPassThrough)
{
    EXPECT_EQ(jsonEscape("mutex_workload"), "mutex_workload");
    EXPECT_EQ(jsonEscape("CV32E40P/SLT/slots8"), "CV32E40P/SLT/slots8");
}

TEST(JsonEscape, QuotesAndBackslashes)
{
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("\\\""), "\\\\\\\"");
}

TEST(JsonEscape, ControlCharacters)
{
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape("a\tb"), "a\\tb");
    EXPECT_EQ(jsonEscape("a\rb"), "a\\rb");
    EXPECT_EQ(jsonEscape(std::string("a\x01z")), "a\\u0001z");
    EXPECT_EQ(jsonEscape(std::string(1, '\0')), "\\u0000");
}

TEST(JsonEscape, NonAsciiBytesPassThrough)
{
    const std::string utf8 = "\xc3\xa9";  // e-acute in UTF-8
    EXPECT_EQ(jsonEscape(utf8), utf8);
}

TEST(JsonUnescape, RoundTripsEverything)
{
    std::string nasty;
    for (int c = 0; c < 256; ++c)
        nasty.push_back(static_cast<char>(c));
    nasty += "\"quoted\" \\slashed\\ \n newline";
    EXPECT_EQ(jsonUnescape(jsonEscape(nasty)), nasty);
}

TEST(JsonUnescape, UnicodeEscapes)
{
    EXPECT_EQ(jsonUnescape("\\u0041"), "A");
    EXPECT_EQ(jsonUnescape("\\u00e9"), "\xc3\xa9");
    // Malformed escapes stay verbatim instead of vanishing.
    EXPECT_EQ(jsonUnescape("\\u00"), "\\u00");
    EXPECT_EQ(jsonUnescape("\\uzzzz"), "\\uzzzz");
    EXPECT_EQ(jsonUnescape("trailing\\"), "trailing\\");
}

TEST(JsonNumber, FiniteValuesUseTheRequestedFormat)
{
    EXPECT_EQ(jsonNumber(1.5), "1.5");
    EXPECT_EQ(jsonNumber(2.0, "%.3f"), "2.000");
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(-7.25, "%.2f"), "-7.25");
}

TEST(JsonNumber, NonFiniteValuesBecomeNull)
{
    // printf would emit bare `inf`/`nan`, which no JSON parser
    // accepts; every non-finite value must serialize as null.
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(jsonNumber(inf), "null");
    EXPECT_EQ(jsonNumber(-inf), "null");
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(inf, "%.3f"), "null");  // fmt ignored
}

TEST(JsonNumber, RoundTripsThroughParse)
{
    for (const double v : {0.0, 1.0, -3.5, 1e300, 1e-300,
                           12345.678901234567}) {
        double back = 0;
        bool wasNull = true;
        ASSERT_TRUE(jsonParseNumber(jsonNumber(v), &back, &wasNull));
        EXPECT_EQ(back, v);  // %.17g is round-trip exact
        EXPECT_FALSE(wasNull);
    }
}

TEST(JsonParseNumber, NullParsesAsNanWithFlag)
{
    double v = 0;
    bool wasNull = false;
    ASSERT_TRUE(jsonParseNumber("null", &v, &wasNull));
    EXPECT_TRUE(wasNull);
    EXPECT_TRUE(std::isnan(v));
    // Whitespace around the token is tolerated (cache lines are
    // sliced by comma, leaving incidental spaces).
    ASSERT_TRUE(jsonParseNumber("  null ", &v, &wasNull));
    EXPECT_TRUE(wasNull);
}

TEST(JsonParseNumber, LegacyBareInfNanStillParse)
{
    // Streams written before the jsonNumber fix carry printf's bare
    // inf/nan; strtod accepts them, so old caches keep loading.
    double v = 0;
    bool wasNull = true;
    ASSERT_TRUE(jsonParseNumber("inf", &v, &wasNull));
    EXPECT_TRUE(std::isinf(v));
    EXPECT_FALSE(wasNull);
    ASSERT_TRUE(jsonParseNumber("nan", &v, &wasNull));
    EXPECT_TRUE(std::isnan(v));
    EXPECT_FALSE(wasNull);
}

TEST(JsonParseNumber, RejectsMalformedText)
{
    double v = 0;
    EXPECT_FALSE(jsonParseNumber("", &v));
    EXPECT_FALSE(jsonParseNumber("abc", &v));
    EXPECT_FALSE(jsonParseNumber("1.5x", &v));
    EXPECT_FALSE(jsonParseNumber("nulll", &v));
    EXPECT_FALSE(jsonParseNumber("1.5 2.5", &v));
}

TEST(JsonWriter, CommasSeparateMembersAndElementsOnly)
{
    std::string out;
    JsonWriter(out)
        .beginObject()
        .num("a", 1)
        .str("b", "x")
        .boolean("c", true)
        .boolean("d", false)
        .null("e")
        .raw("f", "[1]")
        .endObject();
    EXPECT_EQ(out, "{\"a\":1,\"b\":\"x\",\"c\":true,\"d\":false,"
                   "\"e\":null,\"f\":[1]}");
}

TEST(JsonWriter, ContinuesAnObjectAcrossWriters)
{
    // A second writer over the same string picks up the separators
    // where the first left off (the trace sink's label prefix).
    std::string out;
    JsonWriter(out).beginObject().str("core", "CV32E40P");
    JsonWriter(out).num("episode", 0).endObject();
    out += '\n';
    JsonWriter(out).beginObject().num("episode", 1).endObject();
    EXPECT_EQ(out, "{\"core\":\"CV32E40P\",\"episode\":0}\n"
                   "{\"episode\":1}");
}

TEST(JsonWriter, StrEscapesLikeJsonEscape)
{
    const std::string nasty = "a\"b\\c\n\x01\xc3\xa9";
    std::string out;
    JsonWriter(out).beginObject().str("w", nasty).endObject();
    EXPECT_EQ(out, "{\"w\":\"" + jsonEscape(nasty) + "\"}");
    EXPECT_EQ(out, "{\"w\":\"a\\\"b\\\\c\\n\\u0001\xc3\xa9\"}");
}

TEST(JsonWriter, FixedWritesNullForNonFiniteValues)
{
    const double inf = std::numeric_limits<double>::infinity();
    std::string out;
    JsonWriter(out)
        .beginObject()
        .fixed("a", 2.0, "%.3f")
        .fixed("b", std::nan(""), "%.3f")
        .fixed("c", inf, "%.1f")
        .fixed("d", -inf, "%.0f")
        .fixed("e", 0.1, "%.17g")
        .endObject();
    EXPECT_EQ(out, "{\"a\":2.000,\"b\":null,\"c\":null,\"d\":null,"
                   "\"e\":0.10000000000000001}");
}

TEST(JsonWriter, IntegersPrintAsOstreamDoes)
{
    std::string out;
    JsonWriter(out)
        .beginObject()
        .num("u64", ~std::uint64_t{0})
        .num("i", -42)
        .num("ll", static_cast<long long>(-9000000000000000))
        .num("u32", 0xffffffffu)
        .endObject();
    EXPECT_EQ(out, "{\"u64\":18446744073709551615,\"i\":-42,"
                   "\"ll\":-9000000000000000,\"u32\":4294967295}");
}

TEST(JsonWriter, NestedAndEmptyArrays)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject().beginArray("empty").endArray().beginArray("nums");
    for (int i : {1, 2, 3})
        w.num(nullptr, i);
    w.endArray().beginArray("objs");
    for (int i : {7, 8})
        w.beginObject().num("i", i).endObject();
    w.endArray().beginObject("inner").beginArray("s");
    w.str(nullptr, "a").fixed(nullptr, 0.5, "%.2f").null(nullptr);
    w.endArray().endObject().endObject();
    EXPECT_EQ(out, "{\"empty\":[],\"nums\":[1,2,3],"
                   "\"objs\":[{\"i\":7},{\"i\":8}],"
                   "\"inner\":{\"s\":[\"a\",0.50,null]}}");
}

TEST(JsonWriter, SchemaHeaderLine)
{
    std::ostringstream os;
    writeSchemaHeader(os, "fig9_trace", 4);
    EXPECT_EQ(os.str(), "{\"schema\":4,\"bench\":\"fig9_trace\"}\n");
}

TEST(JsonEscape, SweepResultWriterEscapesWorkloadNames)
{
    // Workload names flow into writeResultsJsonl; an adversarial name
    // must not break the line structure (one valid object per line).
    SweepResult r;
    r.point.workload = "evil\"name\nwith\\specials";
    std::ostringstream os;
    writeResultsJsonl(os, {r});
    const std::string line = os.str();
    EXPECT_NE(line.find("evil\\\"name\\nwith\\\\specials"),
              std::string::npos);
    // Exactly one newline: the record terminator, not the payload's.
    EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
    EXPECT_EQ(line.back(), '\n');
}

} // namespace
} // namespace rtu
