#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "base/error.h"

namespace simulcast::obs {

std::string Json::escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\f': out += "\\f"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Json::quote(std::string_view raw) {
  // Built with append rather than `"\"" + escape(raw) + "\""`: GCC 12 at -O3
  // reports a false -Wrestrict on that operator+ chain.
  const std::string body = escape(raw);
  std::string out;
  out.reserve(body.size() + 2);
  out.append(1, '"').append(body).append(1, '"');
  return out;
}

std::string Json::number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  std::string out(buf, res.ptr);
  // to_chars may omit a fractional/exponent part ("4") — already valid JSON.
  return out;
}

std::string Json::number(std::uint64_t value) {
  return std::to_string(value);
}

std::string Json::boolean(bool value) {
  return value ? "true" : "false";
}

void Json::newline_indent() {
  out_ += '\n';
  out_.append(2 * stack_.size(), ' ');
}

void Json::begin_value() {
  if (stack_.empty()) {
    if (!out_.empty()) throw UsageError("Json: more than one top-level value");
    return;
  }
  Level& top = stack_.back();
  if (!top.array && !key_pending_) throw UsageError("Json: object value without a key");
  if (top.array) {
    if (top.entries > 0) out_ += ',';
    newline_indent();
  }
  ++top.entries;
  key_pending_ = false;
}

Json& Json::object_begin() {
  begin_value();
  out_ += '{';
  stack_.push_back({/*array=*/false, 0});
  return *this;
}

Json& Json::object_end() {
  if (stack_.empty() || stack_.back().array) throw UsageError("Json: unmatched object_end");
  if (key_pending_) throw UsageError("Json: object_end with a dangling key");
  const bool empty = stack_.back().entries == 0;
  stack_.pop_back();
  if (!empty) newline_indent();
  out_ += '}';
  return *this;
}

Json& Json::array_begin() {
  begin_value();
  out_ += '[';
  stack_.push_back({/*array=*/true, 0});
  return *this;
}

Json& Json::array_end() {
  if (stack_.empty() || !stack_.back().array) throw UsageError("Json: unmatched array_end");
  const bool empty = stack_.back().entries == 0;
  stack_.pop_back();
  if (!empty) newline_indent();
  out_ += ']';
  return *this;
}

Json& Json::key(std::string_view name) {
  if (stack_.empty() || stack_.back().array) throw UsageError("Json: key outside an object");
  if (key_pending_) throw UsageError("Json: two keys in a row");
  if (stack_.back().entries > 0) out_ += ',';
  newline_indent();
  out_ += quote(name);
  out_ += ": ";
  key_pending_ = true;
  return *this;
}

Json& Json::value(std::string_view v) {
  begin_value();
  out_ += quote(v);
  return *this;
}

Json& Json::value(double v) {
  begin_value();
  out_ += number(v);
  return *this;
}

Json& Json::value(std::uint64_t v) {
  begin_value();
  out_ += number(v);
  return *this;
}

Json& Json::value(bool v) {
  begin_value();
  out_ += boolean(v);
  return *this;
}

const std::string& Json::str() const {
  if (!stack_.empty()) throw UsageError("Json: str() with open objects/arrays");
  return out_;
}

}  // namespace simulcast::obs
