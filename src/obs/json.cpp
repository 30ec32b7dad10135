#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace treeaa::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  TREEAA_CHECK(res.ec == std::errc());
  return std::string(buf, res.ptr);
}

void JsonWriter::elem() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!comma_.empty()) {
    if (comma_.back()) out_ += ',';
    comma_.back() = true;
  }
}

void JsonWriter::begin_object() {
  elem();
  out_ += '{';
  comma_.push_back(false);
}

void JsonWriter::end_object() {
  TREEAA_CHECK(!comma_.empty());
  out_ += '}';
  comma_.pop_back();
}

void JsonWriter::begin_array() {
  elem();
  out_ += '[';
  comma_.push_back(false);
}

void JsonWriter::end_array() {
  TREEAA_CHECK(!comma_.empty());
  out_ += ']';
  comma_.pop_back();
}

void JsonWriter::key(std::string_view k) {
  TREEAA_CHECK_MSG(!comma_.empty(), "key() outside an object");
  if (comma_.back()) out_ += ',';
  comma_.back() = true;
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
  after_key_ = true;
}

void JsonWriter::value(std::string_view s) {
  elem();
  out_ += '"';
  out_ += json_escape(s);
  out_ += '"';
}

void JsonWriter::value(double v) {
  elem();
  out_ += json_number(v);
}

void JsonWriter::value(std::uint64_t v) {
  elem();
  out_ += std::to_string(v);
}

void JsonWriter::value(std::int64_t v) {
  elem();
  out_ += std::to_string(v);
}

void JsonWriter::value(bool v) {
  elem();
  out_ += v ? "true" : "false";
}

void JsonWriter::null() {
  elem();
  out_ += "null";
}

void JsonWriter::raw(std::string_view fragment) {
  elem();
  out_ += fragment;
}

}  // namespace treeaa::obs
