// JSON emission: escaping, deterministic number formatting, and the
// streaming writer's comma placement.
#include "obs/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace treeaa::obs {
namespace {

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonNumber, ShortestRoundTripForm) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(-3.0), "-3");
  EXPECT_EQ(json_number(1e100), "1e+100");
}

TEST(JsonNumber, NonFiniteBecomesNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWriter, ObjectsArraysAndCommas) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.key("n");
  w.value(std::uint64_t{16});
  w.key("name");
  w.value("tree aa");
  w.key("ok");
  w.value(true);
  w.key("list");
  w.begin_array();
  w.value(1.5);
  w.null();
  w.begin_object();
  w.end_object();
  w.end_array();
  w.end_object();
  EXPECT_EQ(out, "{\"n\":16,\"name\":\"tree aa\",\"ok\":true,"
                 "\"list\":[1.5,null,{}]}");
}

TEST(JsonWriter, RawFragmentsPlaceCommasLikeValues) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.key("a");
  w.raw("[1,2]");
  w.key("b");
  w.raw("\"x\"");
  w.end_object();
  EXPECT_EQ(out, "{\"a\":[1,2],\"b\":\"x\"}");
}

}  // namespace
}  // namespace treeaa::obs
