// The JSON reader's contract: full-grammar parsing with checked typed
// accessors, plus the two strictnesses job specs and store snapshots rely
// on — duplicate object keys and trailing garbage are errors, and every
// syntax error carries a 1-based line:column location.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace apsq {
namespace {

TEST(Json, ParsesScalarsArraysAndNestedObjects) {
  const JsonValue v = json_parse(
      "{\"n\": null, \"b\": true, \"x\": -2.5e3, \"s\": \"hi\","
      " \"a\": [1, 2, 3], \"o\": {\"k\": false}}");
  EXPECT_TRUE(v.is_object());
  EXPECT_TRUE(v.get("n").is_null());
  EXPECT_EQ(v.get("b").as_bool(), true);
  EXPECT_DOUBLE_EQ(v.get("x").as_number(), -2500.0);
  EXPECT_EQ(v.get("s").as_string(), "hi");
  ASSERT_EQ(v.get("a").size(), 3u);
  EXPECT_EQ(v.get("a").at(1).as_i64(), 2);
  EXPECT_EQ(v.get("o").get("k").as_bool(), false);
}

TEST(Json, MembersPreserveSourceOrder) {
  const JsonValue v = json_parse("{\"z\": 1, \"a\": 2, \"m\": 3}");
  const auto& m = v.members();
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0].first, "z");
  EXPECT_EQ(m[1].first, "a");
  EXPECT_EQ(m[2].first, "m");
}

TEST(Json, StringEscapesDecode) {
  const JsonValue v =
      json_parse("\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"");
  EXPECT_EQ(v.as_string(), "a\"b\\c\n\tA\xc3\xa9");
}

TEST(Json, NumbersRoundTripThroughSeventeenSignificantDigits) {
  const JsonValue v = json_parse("[0.1, 1e-300, 9007199254740993.0]");
  EXPECT_DOUBLE_EQ(v.at(0).as_number(), 0.1);
  EXPECT_DOUBLE_EQ(v.at(1).as_number(), 1e-300);
  // 2^53 + 1 is not exactly representable: as_number returns the nearest
  // double.
  EXPECT_DOUBLE_EQ(v.at(2).as_number(), 9007199254740992.0);
}

TEST(Json, IntegerLiteralsStayExactTo64Bits) {
  const JsonValue v = json_parse(
      "[9007199254740993, 18446744073709551615, -9223372036854775808,"
      " 9223372036854775807, -0, 18446744073709551616, 1e3, 2.5, -1]");
  // Integer literals (no fraction, no exponent) are read exactly.
  EXPECT_EQ(v.at(0).as_i64(), i64{9007199254740993});
  EXPECT_EQ(v.at(0).as_u64(), u64{9007199254740993});
  EXPECT_EQ(v.at(1).as_u64(), ~u64{0});
  EXPECT_THROW(v.at(1).as_i64(), std::invalid_argument);  // past i64
  EXPECT_EQ(v.at(2).as_i64(), std::numeric_limits<i64>::min());
  EXPECT_EQ(v.at(3).as_i64(), std::numeric_limits<i64>::max());
  EXPECT_EQ(v.at(4).as_u64(), 0u);
  // Past u64, and fractions, are not integers; 1e3 is one.
  EXPECT_THROW(v.at(5).as_u64(), std::invalid_argument);
  EXPECT_EQ(v.at(6).as_u64(), 1000u);
  EXPECT_THROW(v.at(7).as_u64(), std::invalid_argument);
  EXPECT_THROW(v.at(8).as_u64(), std::invalid_argument);
  EXPECT_EQ(v.at(8).as_i64(), -1);
  // A fraction or exponent literal is read through its double, which from
  // 2^53 on no longer names one integer: 2^53 + 1 written that way must
  // be rejected, not read as 2^53. Just below 2^53 it is still exact.
  const JsonValue w = json_parse(
      "[9007199254740993.0, 9.007199254740993e15, 9007199254740991.0,"
      " -9.007199254740991e15]");
  EXPECT_THROW(w.at(0).as_i64(), std::invalid_argument);
  EXPECT_THROW(w.at(0).as_u64(), std::invalid_argument);
  EXPECT_THROW(w.at(1).as_i64(), std::invalid_argument);
  EXPECT_THROW(w.at(1).as_u64(), std::invalid_argument);
  EXPECT_EQ(w.at(2).as_u64(), u64{9007199254740991});
  EXPECT_EQ(w.at(3).as_i64(), i64{-9007199254740991});
  // as_number still gives the double strtod would, sign of zero included.
  for (const char* text :
       {"9007199254740993", "9007199254740995", "12345678901234567",
        "-9223372036854775807", "9223372036854775809",
        "18446744073709551615", "-0"}) {
    const double d = json_parse(text).as_number();
    EXPECT_EQ(d, std::strtod(text, nullptr)) << text;
    EXPECT_EQ(std::signbit(d), std::signbit(std::strtod(text, nullptr)))
        << text;
  }
}

TEST(Json, AccessorsThrowNamingActualType) {
  const JsonValue v = json_parse("{\"s\": \"x\", \"f\": 2.5}");
  EXPECT_THROW(v.get("s").as_number(), std::invalid_argument);
  EXPECT_THROW(v.get("f").as_i64(), std::invalid_argument);  // fractional
  EXPECT_THROW(v.get("missing"), std::invalid_argument);
  EXPECT_THROW(v.at(0), std::invalid_argument);  // object, not array
  try {
    v.get("s").as_number();
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("expected a number, got string"),
              std::string::npos);
  }
}

TEST(Json, RejectsDuplicateKeysTrailingGarbageAndBadSyntax) {
  EXPECT_THROW(json_parse("{\"a\": 1, \"a\": 2}"), std::invalid_argument);
  EXPECT_THROW(json_parse("{} x"), std::invalid_argument);
  EXPECT_THROW(json_parse("[1, 2"), std::invalid_argument);
  EXPECT_THROW(json_parse("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW(json_parse("[01]"), std::invalid_argument);  // leading zero
  EXPECT_THROW(json_parse("[1.]"), std::invalid_argument);
  EXPECT_THROW(json_parse(""), std::invalid_argument);
  EXPECT_THROW(json_parse("tru"), std::invalid_argument);
}

TEST(Json, SyntaxErrorsCarryLineAndColumn) {
  try {
    json_parse("{\n  \"a\": 1,\n  \"a\": 2\n}");
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Json, ParseFilePrefixesErrorsWithPath) {
  const std::string path = ::testing::TempDir() + "json_test_bad.json";
  std::ofstream(path) << "{ nope";
  try {
    json_parse_file(path);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).find(path), 0u);
  }
  std::remove(path.c_str());
  EXPECT_THROW(json_parse_file(path + ".absent"), std::runtime_error);
}

}  // namespace
}  // namespace apsq
