#include "ayd/io/json_parse.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>
#include <utility>

#include "ayd/io/json.hpp"
#include "ayd/util/error.hpp"

namespace ayd::io {

namespace {

[[noreturn]] void fail_kind(const char* want, JsonValue::Kind got) {
  static const char* const kNames[] = {"null",   "bool",  "number",
                                       "string", "array", "object"};
  throw util::InvalidArgument(std::string("JsonValue: expected ") + want +
                              ", found " + kNames[static_cast<int>(got)]);
}

/// Approximate base-10 exponent of the first significant digit of an
/// already-grammar-checked number token (0 for a zero mantissa), clamped
/// to +-100000. Only consulted when from_chars reported
/// result_out_of_range, to tell overflow (huge positive exponent) from
/// underflow (huge negative) — C++17 from_chars does not say which.
long decimal_magnitude(std::string_view token) {
  std::size_t i = token.front() == '-' ? 1 : 0;
  const std::size_t e_pos = token.find_first_of("eE", i);
  const std::string_view mantissa =
      token.substr(i, (e_pos == std::string_view::npos ? token.size()
                                                       : e_pos) -
                          i);
  long exp10 = 0;
  if (e_pos != std::string_view::npos) {
    const std::string_view etext = token.substr(e_pos + 1);
    const bool neg = etext.front() == '-';
    for (const char c : etext) {
      if (c < '0' || c > '9') continue;  // sign
      if (exp10 < 100000) exp10 = exp10 * 10 + (c - '0');
    }
    if (neg) exp10 = -exp10;
  }
  const std::size_t dot = mantissa.find('.');
  const std::string_view int_part =
      dot == std::string_view::npos ? mantissa : mantissa.substr(0, dot);
  const std::string_view frac_part =
      dot == std::string_view::npos ? std::string_view{}
                                    : mantissa.substr(dot + 1);
  for (std::size_t k = 0; k < int_part.size(); ++k) {
    if (int_part[k] != '0') {
      return exp10 + static_cast<long>(int_part.size() - k) - 1;
    }
  }
  for (std::size_t k = 0; k < frac_part.size(); ++k) {
    if (frac_part[k] != '0') return exp10 - static_cast<long>(k) - 1;
  }
  return 0;  // zero mantissa: neither overflow nor underflow
}

class Parser {
 public:
  Parser(std::string_view text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  JsonValue run() {
    skip_ws();
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw util::InvalidArgument("JSON parse error at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  char next() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  void expect_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      fail("invalid literal");
    }
    pos_ += word.size();
  }

  JsonValue parse_value() {
    if (eof()) fail("unexpected end of input");
    if (depth_ > max_depth_) fail("nesting too deep");
    switch (peek()) {
      case 'n':
        expect_literal("null");
        return JsonValue::null();
      case 't':
        expect_literal("true");
        return JsonValue::boolean(true);
      case 'f':
        expect_literal("false");
        return JsonValue::boolean(false);
      case '"':
        return JsonValue::string(parse_string());
      case '[':
        return parse_array();
      case '{':
        return parse_object();
      default:
        return parse_number();
    }
  }

  JsonValue parse_array() {
    ++pos_;  // consume '['
    ++depth_;
    std::vector<JsonValue> elems;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      --depth_;
      return JsonValue::array(std::move(elems));
    }
    while (true) {
      skip_ws();
      elems.push_back(parse_value());
      skip_ws();
      const char c = next();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    --depth_;
    return JsonValue::array(std::move(elems));
  }

  JsonValue parse_object() {
    ++pos_;  // consume '{'
    ++depth_;
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      --depth_;
      return JsonValue::object(std::move(members));
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected string object key");
      std::string key = parse_string();
      skip_ws();
      if (next() != ':') fail("expected ':' after object key");
      skip_ws();
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = next();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    --depth_;
    return JsonValue::object(std::move(members));
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = next();
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return v;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string parse_string() {
    ++pos_;  // consume '"'
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char e = next();
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (next() != '\\' || next() != 'u') {
              fail("unpaired UTF-16 surrogate");
            }
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) {
              fail("invalid UTF-16 surrogate pair");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired UTF-16 surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    bool integral = true;
    if (eof() || peek() < '0' || peek() > '9') fail("invalid number");
    if (peek() == '0') {
      ++pos_;  // no leading zeros
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && peek() == '.') {
      integral = false;
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("invalid fraction");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("invalid exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        return JsonValue::integer(static_cast<std::int64_t>(v));
      }
      // Out of int64 range: fall through to the double representation.
    }
    // std::from_chars, not strtod: strtod honours LC_NUMERIC, so under a
    // comma-decimal locale (de_DE et al.) it would stop at the '.' and
    // silently truncate "0.5" to 0 — a wire-protocol parser must not
    // change meaning with the host locale. from_chars is specified to be
    // locale-independent. The grammar above already validated the token,
    // so the only failures left are range errors.
    double d = 0.0;
    const std::from_chars_result r =
        std::from_chars(token.data(), token.data() + token.size(), d);
    if (r.ec == std::errc::result_out_of_range) {
      // C++17 leaves `d` unmodified here, so which way it went must be
      // read off the token. Overflow is an error (JSON has no inf);
      // underflow keeps strtod's old behaviour and rounds to zero.
      if (decimal_magnitude(token) > 0) fail("number out of range");
      return JsonValue::number(token[0] == '-' ? -0.0 : 0.0);
    }
    if (r.ec != std::errc() || r.ptr != token.data() + token.size()) {
      fail("invalid number");
    }
    if (!std::isfinite(d)) fail("number out of range");
    return JsonValue::number(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  int max_depth_;
};

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) fail_kind("bool", kind_);
  return bool_;
}

double JsonValue::as_double() const {
  if (kind_ != Kind::kNumber) fail_kind("number", kind_);
  return is_int_ ? static_cast<double>(int_) : num_;
}

bool JsonValue::is_integer() const {
  return kind_ == Kind::kNumber && is_int_;
}

std::int64_t JsonValue::as_int() const {
  if (!is_integer()) fail_kind("integer", kind_);
  return int_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) fail_kind("string", kind_);
  return str_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) fail_kind("array", kind_);
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const& {
  if (kind_ != Kind::kObject) fail_kind("object", kind_);
  return object_;
}

std::vector<std::pair<std::string, JsonValue>> JsonValue::members() && {
  if (kind_ != Kind::kObject) fail_kind("object", kind_);
  return std::move(object_);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw util::InvalidArgument("JsonValue: missing object key '" +
                                std::string(key) + "'");
  }
  return *v;
}

void JsonValue::write(JsonWriter& w) const {
  switch (kind_) {
    case Kind::kNull:
      w.null();
      break;
    case Kind::kBool:
      w.value(bool_);
      break;
    case Kind::kNumber:
      if (is_int_) {
        w.value(int_);
      } else {
        w.value(num_);
      }
      break;
    case Kind::kString:
      w.value(str_);
      break;
    case Kind::kArray:
      w.begin_array();
      for (const JsonValue& v : array_) v.write(w);
      w.end_array();
      break;
    case Kind::kObject:
      w.begin_object();
      for (const auto& [k, v] : object_) {
        w.key(k);
        v.write(w);
      }
      w.end_object();
      break;
  }
}

JsonValue JsonValue::null() { return {}; }

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.num_ = d;
  return v;
}

JsonValue JsonValue::integer(std::int64_t i) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.is_int_ = true;
  v.int_ = i;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::array(std::vector<JsonValue> elems) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(elems);
  return v;
}

JsonValue JsonValue::object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

JsonValue parse_json(std::string_view text, int max_depth) {
  return Parser(text, max_depth).run();
}

}  // namespace ayd::io
