// The repository's JSON reader: accepted documents, rejected garbage, the
// document-order guarantees the spec layer relies on, and round trips of
// obs::JsonWriter output.
#include "common/json_value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/json.h"

namespace treeaa::exp {
namespace {

TEST(JsonValue, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null")->is_null());
  EXPECT_TRUE(JsonValue::parse("true")->as_bool());
  EXPECT_FALSE(JsonValue::parse("false")->as_bool());
  EXPECT_DOUBLE_EQ(JsonValue::parse("3.5")->as_number(), 3.5);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-2e3")->as_number(), -2000.0);
  EXPECT_EQ(JsonValue::parse("\"hi\"")->as_string(), "hi");
}

TEST(JsonValue, ParsesEscapes) {
  const auto v = JsonValue::parse(R"("a\"b\\c\n\tA")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "a\"b\\c\n\tA");
}

TEST(JsonValue, ParsesNestedDocument) {
  const auto v = JsonValue::parse(
      R"({"name":"s","grid":[1,2,3],"inner":{"flag":true,"x":null}})");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->find("name")->as_string(), "s");
  const auto& grid = v->find("grid")->items();
  ASSERT_EQ(grid.size(), 3u);
  EXPECT_DOUBLE_EQ(grid[1].as_number(), 2.0);
  EXPECT_TRUE(v->find("inner")->find("flag")->as_bool());
  EXPECT_TRUE(v->find("inner")->find("x")->is_null());
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(JsonValue, MembersKeepDocumentOrder) {
  const auto v = JsonValue::parse(R"({"z":1,"a":2,"m":3})");
  ASSERT_TRUE(v.has_value());
  const auto& members = v->members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(JsonValue, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonValue::parse("").has_value());
  EXPECT_FALSE(JsonValue::parse("{").has_value());
  EXPECT_FALSE(JsonValue::parse("[1,2,]").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(JsonValue::parse("{'a':1}").has_value());
  EXPECT_FALSE(JsonValue::parse("\"unterminated").has_value());
  EXPECT_FALSE(JsonValue::parse("nul").has_value());
  EXPECT_FALSE(JsonValue::parse("1 2").has_value());  // trailing garbage
  EXPECT_FALSE(JsonValue::parse("{\"a\" 1}").has_value());
}

TEST(JsonValue, RejectsTooDeepNesting) {
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += "[";
  for (int i = 0; i < 64; ++i) deep += "]";
  EXPECT_FALSE(JsonValue::parse(deep).has_value());
}

TEST(JsonValue, RoundTripsSweepSpecShape) {
  const auto v = JsonValue::parse(R"({
    "name": "demo", "seed": 7,
    "scenarios": [
      {"protocols": ["tree_aa"], "tree": {"families": ["path"], "sizes": [20]},
       "n": [7], "t": "max"}
    ]
  })");
  ASSERT_TRUE(v.has_value());
  const auto& scenarios = v->find("scenarios")->items();
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_EQ(scenarios[0].find("t")->as_string(), "max");
  EXPECT_DOUBLE_EQ(
      scenarios[0].find("tree")->find("sizes")->items()[0].as_number(), 20.0);
}

TEST(JsonValue, RoundTripsJsonWriterOutput) {
  std::string out;
  obs::JsonWriter w(out);
  w.begin_object();
  w.key("ev");
  w.value("send");
  w.key("round");
  w.value(std::uint64_t{3});
  w.key("ok");
  w.value(false);
  w.key("x");
  w.null();
  w.key("s");
  w.value("a\"b\n");
  w.end_object();

  const auto v = JsonValue::parse(out);
  ASSERT_TRUE(v.has_value());
  const auto& members = v->members();
  ASSERT_EQ(members.size(), 5u);
  EXPECT_EQ(members[0].first, "ev");
  EXPECT_EQ(members[0].second.as_string(), "send");
  EXPECT_DOUBLE_EQ(members[1].second.as_number(), 3.0);
  EXPECT_FALSE(members[2].second.as_bool());
  EXPECT_TRUE(members[3].second.is_null());
  EXPECT_EQ(members[4].second.as_string(), "a\"b\n");
}

}  // namespace
}  // namespace treeaa::exp
