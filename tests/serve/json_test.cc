#include "src/serve/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "src/common/json.h"

namespace rhythm {
namespace {

JsonValue MustParse(const std::string& text) {
  JsonValue value;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &value, &error)) << error;
  return value;
}

std::string MustFail(const std::string& text) {
  JsonValue value;
  std::string error;
  EXPECT_FALSE(ParseJson(text, &value, &error)) << "accepted: " << text;
  return error;
}

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(MustParse("null").is_null());
  EXPECT_TRUE(MustParse("true").boolean);
  EXPECT_FALSE(MustParse("false").boolean);
  EXPECT_DOUBLE_EQ(MustParse("42").number, 42.0);
  EXPECT_DOUBLE_EQ(MustParse("-0.5").number, -0.5);
  EXPECT_DOUBLE_EQ(MustParse("1e3").number, 1000.0);
  EXPECT_EQ(MustParse("\"hi\"").string, "hi");
}

TEST(JsonParseTest, ObjectAndArray) {
  const JsonValue doc = MustParse(
      "{\"a\": 1, \"b\": [true, null, \"x\"], \"c\": {\"d\": 2}}");
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.NumberOr("a", 0.0), 1.0);
  const JsonValue* b = doc.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_TRUE(b->array[0].boolean);
  EXPECT_TRUE(b->array[1].is_null());
  EXPECT_EQ(b->array[2].string, "x");
  const JsonValue* c = doc.Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->NumberOr("d", 0.0), 2.0);
}

TEST(JsonParseTest, TypedAccessorsIgnoreWrongTypes) {
  const JsonValue doc = MustParse("{\"n\": \"nan\", \"s\": 7, \"b\": 1}");
  // A present member of the wrong type falls back — it is NOT coerced.
  EXPECT_DOUBLE_EQ(doc.NumberOr("n", -1.0), -1.0);
  EXPECT_EQ(doc.StringOr("s", "fallback"), "fallback");
  EXPECT_TRUE(doc.BoolOr("b", true));
  EXPECT_EQ(doc.IntOr("s", 0), 7);
}

TEST(JsonParseTest, IntOrSaturatesOutsideInt64) {
  const JsonValue doc = MustParse(
      "{\"big\": 1e300, \"small\": -1e300, \"edge\": -9223372036854775808, "
      "\"past\": 9223372036854775808, \"frac\": -2.9}");
  EXPECT_EQ(doc.IntOr("big", 0), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(doc.IntOr("small", 0), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(doc.IntOr("edge", 0), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(doc.IntOr("past", 0), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(doc.IntOr("frac", 0), -2);
}

TEST(JsonParseTest, GetIntReadsIntegerLiteralsExactly) {
  const JsonValue doc = MustParse(
      "{\"odd\": 9007199254740993, \"max\": 18446744073709551615, "
      "\"over\": 18446744073709551616, \"neg\": -1, \"byte\": 255, "
      "\"frac\": 1.0, \"exp\": 1e3, \"text\": \"7\"}");
  uint64_t u64 = 0;
  ASSERT_TRUE(doc.Find("odd")->GetInt(&u64));
  EXPECT_EQ(u64, (uint64_t{1} << 53) + 1);  // no double in between.
  ASSERT_TRUE(doc.Find("max")->GetInt(&u64));
  EXPECT_EQ(u64, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(doc.IntOr("odd", 0), (int64_t{1} << 53) + 1);

  // Out of range, negative for an unsigned type, a fraction, an exponent
  // or not a number at all: false, and the output is untouched.
  u64 = 42;
  for (const char* key : {"over", "neg", "frac", "exp", "text"}) {
    EXPECT_FALSE(doc.Find(key)->GetInt(&u64)) << key;
  }
  EXPECT_EQ(u64, 42u);
  uint8_t byte = 0;
  EXPECT_TRUE(doc.Find("byte")->GetInt(&byte));
  EXPECT_EQ(byte, 255);
  int8_t small = 0;
  EXPECT_FALSE(doc.Find("byte")->GetInt(&small));

  // IntOr keeps reading the other numbers as before.
  EXPECT_EQ(doc.IntOr("frac", 0), 1);
  EXPECT_EQ(doc.IntOr("exp", 0), 1000);
  EXPECT_EQ(doc.IntOr("neg", 0), -1);
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(MustParse("\"a\\n\\t\\\"\\\\b\"").string, "a\n\t\"\\b");
  EXPECT_EQ(MustParse("\"\\u0041\"").string, "A");
  // Non-ASCII \u escapes become UTF-8.
  EXPECT_EQ(MustParse("\"\\u00e9\"").string, "\xc3\xa9");
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  MustFail("");
  MustFail("{");
  MustFail("[1,]");
  MustFail("{\"a\":}");
  MustFail("{\"a\":1,}");
  MustFail("{'a':1}");
  MustFail("\"unterminated");
  MustFail("tru");
  MustFail("1 2");         // trailing garbage.
  MustFail("{} {}");       // trailing garbage.
  MustFail("\"raw\ncontrol\"");
}

TEST(JsonParseTest, RejectsNonJsonNumbers) {
  MustFail("01");
  MustFail("1.");
  MustFail(".5");
  MustFail("+1");
  MustFail("0x10");
  MustFail("nan");
  MustFail("inf");
  MustFail("1e");
}

TEST(JsonParseTest, RejectsDuplicateKeys) {
  const std::string error = MustFail("{\"a\":1,\"a\":2}");
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST(JsonParseTest, DepthCapStopsHostileNesting) {
  std::string deep;
  for (int i = 0; i < kMaxJsonDepth + 8; ++i) {
    deep += '[';
  }
  deep += "1";
  for (int i = 0; i < kMaxJsonDepth + 8; ++i) {
    deep += ']';
  }
  MustFail(deep);

  // One inside the cap parses fine.
  std::string ok;
  for (int i = 0; i < kMaxJsonDepth - 1; ++i) {
    ok += '[';
  }
  ok += "1";
  for (int i = 0; i < kMaxJsonDepth - 1; ++i) {
    ok += ']';
  }
  MustParse(ok);
}

TEST(JsonParseTest, ErrorsCarryBytePositions) {
  const std::string error = MustFail("{\"a\": bogus}");
  EXPECT_NE(error.find("byte"), std::string::npos) << error;
  EXPECT_EQ(error.rfind("json:", 0), 0u) << error;
}

TEST(JsonRoundTripTest, NonFiniteNumbersRenderAsNull) {
  EXPECT_EQ(JsonNum(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNum(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNum(0.1), "0.10000000000000001");
  EXPECT_EQ(ExactNum(std::numeric_limits<double>::infinity()), "inf");
  JsonWriter w;
  w.BeginArray().Number(std::numeric_limits<double>::infinity()).EndArray();
  EXPECT_TRUE(MustParse(w.str()).array[0].is_null());
}

TEST(JsonRoundTripTest, WriterOutputReparsesExactly) {
  JsonWriter w;
  w.BeginObject()
      .Key("pi").Number(3.141592653589793)
      .Key("tiny").Number(5e-324)
      .Key("neg").Number(-0.1)
      .Key("text").String("line\nbreak \"quoted\" \\slash")
      .Key("list").BeginArray().Int(-7).Bool(true).Null().EndArray()
      .EndObject();
  const JsonValue doc = MustParse(std::move(w).str());
  // %.17g doubles survive the write/parse round trip bit-exactly.
  EXPECT_EQ(doc.NumberOr("pi", 0.0), 3.141592653589793);
  EXPECT_EQ(doc.NumberOr("tiny", 0.0), 5e-324);
  EXPECT_EQ(doc.NumberOr("neg", 0.0), -0.1);
  EXPECT_EQ(doc.StringOr("text", ""), "line\nbreak \"quoted\" \\slash");
  ASSERT_EQ(doc.Find("list")->array.size(), 3u);
}

TEST(JsonNumberTest, KeepsTheLiteralOfIntegersOnly) {
  const JsonValue doc = MustParse("[12,-0,1.5,1e3,2E-1]");
  EXPECT_EQ(doc.array[0].string, "12");
  EXPECT_EQ(doc.array[1].string, "-0");
  for (size_t i = 2; i < doc.array.size(); ++i) {
    EXPECT_TRUE(doc.array[i].string.empty()) << i;
    int64_t integer = 0;
    EXPECT_FALSE(doc.array[i].GetInt(&integer)) << i;
  }
}

}  // namespace
}  // namespace rhythm
