#include <gtest/gtest.h>

#include <string>

#include "support/alloc_hook.hh"
#include "support/json.hh"

namespace nachos {
namespace {

TEST(Json, ScalarRoundTrips)
{
    EXPECT_EQ(dumpJson(JsonValue()), "null");
    EXPECT_EQ(dumpJson(JsonValue(true)), "true");
    EXPECT_EQ(dumpJson(JsonValue(false)), "false");
    EXPECT_EQ(dumpJson(JsonValue(uint64_t{0})), "0");
    EXPECT_EQ(dumpJson(JsonValue(UINT64_MAX)), "18446744073709551615");
    EXPECT_EQ(dumpJson(JsonValue(int64_t{-42})), "-42");
    EXPECT_EQ(dumpJson(JsonValue(1.5)), "1.5");
    EXPECT_EQ(dumpJson(JsonValue("hi")), "\"hi\"");
}

TEST(Json, Uint64SurvivesParseDump)
{
    // 64-bit digests above 2^53 must not go through double.
    const std::string text = "18446744073709551615";
    JsonValue v;
    const JsonParseStatus r = parseJson(text, v);
    ASSERT_TRUE(r.ok);
    ASSERT_TRUE(v.isU64());
    EXPECT_EQ(v.asU64(), UINT64_MAX);
    EXPECT_EQ(dumpJson(v), text);
}

TEST(Json, NegativeAndDoubleNumbers)
{
    JsonValue v;
    const JsonParseStatus r =
        parseJson("[-9223372036854775808, 2.5, 1e3]", v);
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(v.at(0).isI64());
    EXPECT_EQ(v.at(0).asI64(), INT64_MIN);
    EXPECT_FALSE(v.at(1).isU64());
    EXPECT_DOUBLE_EQ(v.at(1).asDouble(), 2.5);
    // Exponent form parses as double but canonicalizes to the
    // integral spelling when it fits.
    EXPECT_EQ(dumpJson(v.at(2)), "1000");
}

TEST(Json, StringEscapes)
{
    JsonValue v;
    const JsonParseStatus r =
        parseJson("\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"", v);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(v.str(), "a\"b\\c\n\tA\xc3\xa9");
    // Control characters re-escape on output.
    EXPECT_EQ(dumpJson(JsonValue(std::string("x\ny"))), "\"x\\ny\"");
    EXPECT_EQ(dumpJson(JsonValue(std::string(1, '\x01'))),
              "\"\\u0001\"");
}

TEST(Json, SurrogatePairDecodes)
{
    JsonValue v;
    const JsonParseStatus r = parseJson("\"\\ud83d\\ude00\"", v);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(v.str(), "\xf0\x9f\x98\x80");
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    JsonValue v = JsonValue::makeObject();
    v.set("zebra", 1);
    v.set("alpha", 2);
    EXPECT_EQ(dumpJson(v), "{\"zebra\":1,\"alpha\":2}");
    v.set("zebra", 3); // replace keeps position
    EXPECT_EQ(dumpJson(v), "{\"zebra\":3,\"alpha\":2}");
    ASSERT_NE(v.find("alpha"), nullptr);
    EXPECT_EQ(v.find("alpha")->asU64(), 2u);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, NestedRoundTrip)
{
    const std::string text =
        "{\"a\":[1,2,{\"b\":null}],\"c\":{\"d\":[true,false]}}";
    JsonValue v;
    const JsonParseStatus r = parseJson(text, v);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(dumpJson(v), text);
}

TEST(Json, MalformedInputsReportErrors)
{
    const char *bad[] = {
        "",          "{",          "[1,",      "\"unterminated",
        "tru",       "01",         "1.",       "1e",
        "{\"a\":}",  "{\"a\" 1}",  "{1:2}",    "[1 2]",
        "\"\\x\"",   "\"\\u12\"",  "nullX",    "1 2",
        "{\"a\":1,}" };
    for (const char *text : bad) {
        JsonValue v;
    const JsonParseStatus r = parseJson(text, v);
        EXPECT_FALSE(r.ok) << "accepted: " << text;
        EXPECT_STRNE(r.error, "") << text;
    }
}

TEST(Json, RawControlCharacterRejected)
{
    JsonValue v;
    const JsonParseStatus r = parseJson("\"a\nb\"", v);
    EXPECT_FALSE(r.ok);
}

TEST(Json, DepthLimit)
{
    std::string deep;
    for (int i = 0; i < 200; ++i)
        deep += "[";
    JsonValue v;
    EXPECT_FALSE(parseJson(deep, v).ok);
    // A comfortably-nested document still parses.
    EXPECT_TRUE(parseJson("[[[[[[[[[[1]]]]]]]]]]", v).ok);
}

TEST(Json, NonFiniteDoublesBecomeNull)
{
    EXPECT_EQ(dumpJson(JsonValue(
                  std::numeric_limits<double>::infinity())),
              "null");
}

TEST(JsonWriter, ByteIdenticalToTreeDump)
{
    // The same logical document through both encoders.
    JsonValue v = JsonValue::makeObject();
    v.set("v", 1);
    v.set("name", "he said \"hi\"\n");
    v.set("digest", UINT64_MAX);
    v.set("delta", int64_t{-42});
    v.set("ratio", 1.5);
    v.set("whole", 3.0); // double holding an integral value
    v.set("flag", true);
    v.set("nothing", JsonValue());
    JsonValue arr = JsonValue::makeArray();
    arr.push(uint64_t{7});
    JsonValue inner = JsonValue::makeObject();
    inner.set("empty", JsonValue::makeObject());
    arr.push(std::move(inner));
    v.set("items", std::move(arr));

    std::string out;
    JsonWriter w(out);
    w.beginObject();
    w.key("v");
    w.value(1);
    w.key("name");
    w.value("he said \"hi\"\n");
    w.key("digest");
    w.value(UINT64_MAX);
    w.key("delta");
    w.value(int64_t{-42});
    w.key("ratio");
    w.value(1.5);
    w.key("whole");
    w.value(3.0);
    w.key("flag");
    w.value(true);
    w.key("nothing");
    w.null();
    w.key("items");
    w.beginArray();
    w.value(uint64_t{7});
    w.beginObject();
    w.key("empty");
    w.beginObject();
    w.endObject();
    w.endObject();
    w.endArray();
    w.endObject();

    EXPECT_EQ(out, dumpJson(v));
}

TEST(JsonWriter, EmbeddedSubtreeMatchesDump)
{
    JsonValue subtree = JsonValue::makeObject();
    subtree.set("p99", uint64_t{1023});
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    w.key("latency");
    w.value(subtree);
    w.endObject();
    JsonValue v = JsonValue::makeObject();
    v.set("latency", std::move(subtree));
    EXPECT_EQ(out, dumpJson(v));
}

TEST(JsonInPlace, MatchesFreshParse)
{
    const char *docs[] = {
        "{\"v\":1,\"id\":7,\"type\":\"run\",\"run\":{\"workload\":"
        "\"164.gzip\",\"backends\":[\"nachos\",\"sw\"]}}",
        "{\"v\":1,\"id\":8,\"type\":\"ping\"}",
        "[1,-2,3.5,18446744073709551615,\"x\",null,true]",
        "{\"dup\":1,\"dup\":2}", // duplicate key: last wins
        "\"scalar\"",
    };
    // Each document parses into a tree still holding the previous one
    // and into a fresh tree; the two must agree.
    JsonValue reuse;
    for (const char *doc : docs) {
        const JsonParseStatus st = parseJson(doc, reuse);
        ASSERT_TRUE(st.ok) << doc << ": " << st.error;
        JsonValue fresh;
        ASSERT_TRUE(parseJson(doc, fresh).ok) << doc;
        EXPECT_EQ(dumpJson(reuse), dumpJson(fresh)) << doc;
    }
}

TEST(JsonInPlace, ShrinkingDocumentsDropStaleMembers)
{
    JsonValue reuse;
    ASSERT_TRUE(
        parseJson("{\"a\":{\"deep\":[1,2,3]},\"b\":2,\"c\":3}", reuse)
            .ok);
    // Re-parse a smaller object into the same tree: members and array
    // items beyond the new document must disappear.
    ASSERT_TRUE(parseJson("{\"a\":[9]}", reuse).ok);
    EXPECT_EQ(dumpJson(reuse), "{\"a\":[9]}");
}

TEST(JsonInPlace, ErrorsMatchStrictParser)
{
    // Malformed input fails the same way into a warm tree (one that
    // already holds a document) as into a fresh one.
    JsonValue reuse;
    for (const char *bad :
         {"{", "[1,]", "{\"a\":01}", "garbage", "\"unterminated",
          "{\"a\":1}x"}) {
        ASSERT_TRUE(parseJson("{\"a\":[1,2],\"b\":\"s\"}", reuse).ok);
        const JsonParseStatus warm = parseJson(bad, reuse);
        JsonValue fresh;
        const JsonParseStatus cold = parseJson(bad, fresh);
        EXPECT_FALSE(warm.ok) << bad;
        EXPECT_FALSE(cold.ok) << bad;
        EXPECT_STREQ(warm.error, cold.error) << bad;
        EXPECT_EQ(warm.errorOffset, cold.errorOffset) << bad;
    }
    // A failed parse leaves the value reusable.
    ASSERT_TRUE(parseJson("{\"ok\":true}", reuse).ok);
    EXPECT_EQ(dumpJson(reuse), "{\"ok\":true}");
}

TEST(JsonZeroAlloc, SteadyStateParseAndEncodeAllocateNothing)
{
    // The serving plane's steady state: parse a same-shaped request
    // line into a reused tree, then encode a response into a reused
    // buffer. After one warm-up iteration, neither side may touch the
    // heap.
    const std::string line =
        "{\"v\":1,\"id\":42,\"type\":\"run\",\"run\":{\"workload\":"
        "\"164.gzip\",\"seed\":7,\"backends\":[\"nachos\"]}}";
    JsonValue reuse;
    std::string out;
    out.reserve(256);
    auto iteration = [&] {
        ASSERT_TRUE(parseJson(line, reuse).ok);
        out.clear();
        JsonWriter w(out);
        w.beginObject();
        w.key("v");
        w.value(1);
        w.key("id");
        w.value(reuse.find("id")->asU64());
        w.key("type");
        w.value("result");
        w.key("cycles");
        w.value(uint64_t{123456789});
        w.endObject();
    };
    iteration(); // warm up buffers to their high-water mark

    const uint64_t before = threadAllocCount();
    for (int i = 0; i < 100; ++i)
        iteration();
    EXPECT_EQ(threadAllocCount() - before, 0u)
        << "steady-state parse/encode touched the heap";
}

} // namespace
} // namespace nachos
