#include "ayd/util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

#include "ayd/util/contracts.hpp"

namespace ayd::util {

namespace {

bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

std::string trim(std::string_view s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && is_space(s[begin])) ++begin;
  while (end > begin && is_space(s[end - 1])) --end;
  return std::string(s.substr(begin, end - begin));
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::optional<double> parse_strict_double(const std::string& s) {
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string format_sig(double value, int digits) {
  AYD_REQUIRE(digits >= 1 && digits <= 17, "digits out of range");
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, value);
  return buf;
}

std::string format_duration(double seconds) {
  if (std::isnan(seconds)) return "nan";
  if (std::isinf(seconds)) return seconds > 0 ? "inf" : "-inf";
  const bool negative = seconds < 0;
  double s = std::abs(seconds);
  std::string out = negative ? "-" : "";
  if (s < 60.0) {
    out += format_sig(s, 4) + "s";
    return out;
  }
  const auto total = static_cast<long long>(std::llround(s));
  const long long h = total / 3600;
  const long long m = (total % 3600) / 60;
  const long long sec = total % 60;
  char buf[64];
  if (h > 0) {
    std::snprintf(buf, sizeof buf, "%lldh%02lldm", h, m);
  } else if (sec > 0) {
    std::snprintf(buf, sizeof buf, "%lldm%02llds", m, sec);
  } else {
    std::snprintf(buf, sizeof buf, "%lldm", m);
  }
  out += buf;
  return out;
}

std::string format_si(double value, int digits) {
  AYD_REQUIRE(value >= 0, "format_si expects a nonnegative value");
  static constexpr const char* kSuffix[] = {"", "k", "M", "G", "T", "P", "E"};
  int idx = 0;
  double v = value;
  while (v >= 1000.0 && idx < 6) {
    v /= 1000.0;
    ++idx;
  }
  if (idx == 0) return format_sig(value, digits);
  return format_sig(v, digits) + kSuffix[idx];
}

std::string pad_left(std::string_view s, std::size_t w) {
  if (s.size() >= w) return std::string(s);
  return std::string(w - s.size(), ' ') + std::string(s);
}

std::string pad_right(std::string_view s, std::size_t w) {
  if (s.size() >= w) return std::string(s);
  return std::string(s) + std::string(w - s.size(), ' ');
}

}  // namespace ayd::util
