// The repository's one JSON reader: a minimal recursive document parser
// shared by every layer that ingests JSON — sweep specs (src/exp),
// adversary specs (src/harness), the hunt corpus (src/hunt), and the trace
// tool's reports, span files and JSONL transcript lines. Writing goes
// through obs::JsonWriter (obs/json.h).
//
// It is a strict RFC 8259 subset: objects, arrays, strings (ASCII escapes),
// doubles, bools, null — no comments, no trailing commas. Object members
// keep document order, which the spec layer uses for deterministic error
// messages.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace treeaa {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  /// Parses a complete JSON document (surrounding whitespace allowed).
  /// Returns std::nullopt on any syntax error.
  [[nodiscard]] static std::optional<JsonValue> parse(std::string_view text);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Accessors require the matching kind (TREEAA_REQUIRE otherwise).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>&
  members() const;

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;

  friend class JsonParser;
};

}  // namespace treeaa
