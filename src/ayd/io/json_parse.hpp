// Minimal recursive-descent JSON parser — the read side of io/json.
//
// The planning service (ayd serve) speaks NDJSON: one JSON request per
// line. This parser turns such a line into a JsonValue tree; the write
// side stays JsonWriter. It accepts exactly RFC 8259 JSON (no comments,
// no trailing commas, no NaN/Infinity literals) and preserves whether a
// number was written as an integer, so request ids round-trip through a
// reply byte-for-byte ("id": 7 never comes back as 7.0).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ayd::io {

class JsonWriter;

/// One parsed JSON value. Object member order is preserved (members()),
/// because the service canonicaliser and the tests care about stable
/// re-serialisation; lookups go through find()/at().
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// The boolean payload; throws util::InvalidArgument on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  /// The numeric payload as a double (also valid for integer literals).
  [[nodiscard]] double as_double() const;
  /// True when the literal was an integer that fits std::int64_t exactly.
  [[nodiscard]] bool is_integer() const;
  /// The integer payload; throws unless is_integer().
  [[nodiscard]] std::int64_t as_int() const;
  /// The string payload (unescaped UTF-8).
  [[nodiscard]] const std::string& as_string() const;
  /// Array elements; throws on kind mismatch.
  [[nodiscard]] const std::vector<JsonValue>& as_array() const;
  /// Object members in source order; throws on kind mismatch.
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>&
  members() const&;
  /// Moves the members out of an expiring object (the service takes a
  /// parsed request's parameters this way instead of copying them).
  [[nodiscard]] std::vector<std::pair<std::string, JsonValue>> members() &&;

  /// Object member by key (first occurrence); nullptr when absent or when
  /// this value is not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// Like find(), but throws util::InvalidArgument when absent.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

  /// Re-emits this value through a JsonWriter (integers as integers,
  /// other numbers as doubles) — the building block of the service's
  /// canonical compact re-serialisation.
  void write(JsonWriter& w) const;

  // -- construction (used by the parser and by tests) -------------------
  [[nodiscard]] static JsonValue null();
  [[nodiscard]] static JsonValue boolean(bool b);
  [[nodiscard]] static JsonValue number(double d);
  [[nodiscard]] static JsonValue integer(std::int64_t i);
  [[nodiscard]] static JsonValue string(std::string s);
  [[nodiscard]] static JsonValue array(std::vector<JsonValue> elems);
  [[nodiscard]] static JsonValue object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  bool is_int_ = false;
  std::int64_t int_ = 0;
  std::string str_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses `text` as one JSON document (leading/trailing whitespace
/// allowed, nothing else). Throws util::InvalidArgument with a position-
/// annotated message on any syntax error; nesting deeper than `max_depth`
/// is rejected (stack safety for adversarial service input).
[[nodiscard]] JsonValue parse_json(std::string_view text,
                                   int max_depth = 64);

}  // namespace ayd::io
