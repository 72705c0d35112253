// Small string utilities used across the library (table printing, CLI
// parsing, trace rendering). Kept deliberately free of locale dependence.

#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ayd::util {

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string trim(std::string_view s);

/// Splits `s` on `sep`. Adjacent separators produce empty fields; an empty
/// input yields a single empty field (CSV semantics).
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Joins `parts` with `sep` between elements.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Lower-cases ASCII characters only.
[[nodiscard]] std::string to_lower(std::string_view s);

/// Parses `s` as a double, requiring the whole string to be consumed
/// (no trailing junk). Returns nullopt on any parse failure; the caller
/// applies its own range checks and error type.
[[nodiscard]] std::optional<double> parse_strict_double(
    const std::string& s);

/// Formats `value` with `digits` significant digits, trimming trailing
/// zeros ("12.5", "1.7e-09", "300"). Used for compact table cells.
[[nodiscard]] std::string format_sig(double value, int digits = 4);

/// Formats a duration in seconds as a human-readable string, e.g.
/// "90s" -> "1m30s", "5400s" -> "1h30m". Sub-second values keep decimals.
[[nodiscard]] std::string format_duration(double seconds);

/// Formats a nonnegative count with SI suffixes: 1200 -> "1.2k",
/// 3.4e6 -> "3.4M". Exact below 1000.
[[nodiscard]] std::string format_si(double value, int digits = 3);

/// Left/right pads `s` with spaces to width `w` (no-op if already wider).
[[nodiscard]] std::string pad_left(std::string_view s, std::size_t w);
[[nodiscard]] std::string pad_right(std::string_view s, std::size_t w);

}  // namespace ayd::util
