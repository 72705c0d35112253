// The engine's result row: an ordered map from field name to a numeric or
// text value. Evaluation lambdas fill Records with *raw* values; sinks
// (sink.hpp) decide formatting per output, so one evaluation can feed an
// aligned table at 4 significant digits, a CSV at 6, and a JSON-lines
// stream at full precision without being recomputed.

#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ayd::engine {

struct Value {
  enum class Kind { kNumber, kText };
  Kind kind = Kind::kNumber;
  double number = 0.0;
  std::string text;
};

class Record {
 public:
  /// Sets a numeric field (last set wins; field order is first-set order).
  void set(std::string key, double value);
  /// Sets a text field (scenario names, preformatted cells, notes).
  void set(std::string key, std::string text);
  void set(std::string key, const char* text) {
    set(std::move(key), std::string(text));
  }
  /// Field lookup; nullptr when the key was never set.
  [[nodiscard]] const Value* find(std::string_view key) const;
  /// Numeric value of `key`; throws util::InvalidArgument otherwise.
  [[nodiscard]] double num(std::string_view key) const;
  /// Text value of `key`; throws util::InvalidArgument otherwise.
  [[nodiscard]] const std::string& text(std::string_view key) const;

  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& fields()
      const {
    return fields_;
  }

 private:
  Value& slot(std::string key);
  std::vector<std::pair<std::string, Value>> fields_;
};

}  // namespace ayd::engine
