// Minimal, dependency-free JSON emission. Reading goes through the one
// document reader, treeaa::JsonValue (common/json_value.h).
//
// The observability subsystem serializes run reports, metric snapshots and
// structured traces; everything it writes must be byte-reproducible across
// identical runs, so numbers are formatted with std::to_chars (shortest
// round-trip form — no locale, no printf variance) and object keys are
// emitted in a deterministic order by the callers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace treeaa::obs {

/// JSON string escaping per RFC 8259 (quotes, backslash, control chars).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Shortest round-trip decimal form of `v`; NaN and infinities — which JSON
/// cannot represent — become "null".
[[nodiscard]] std::string json_number(double v);

/// Streaming writer with automatic comma placement. Usage:
///   std::string out;
///   JsonWriter w(out);
///   w.begin_object();
///   w.key("n"); w.value(std::uint64_t{16});
///   w.key("range"); w.value(3.5);
///   w.end_object();
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits the key for the next value; must be inside an object.
  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(bool v);
  void null();

  /// Emits a pre-rendered JSON fragment verbatim (caller guarantees it is
  /// valid JSON — used for report sections rendered elsewhere).
  void raw(std::string_view fragment);

 private:
  void elem();

  std::string& out_;
  std::vector<bool> comma_;  // per nesting level: "needs a comma before next"
  bool after_key_ = false;
};

}  // namespace treeaa::obs
