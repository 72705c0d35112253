// Minimal CSV writing/reading (RFC-4180 quoting for the writer, quoted and
// unquoted fields for the reader). Bench binaries can dump their series as
// CSV next to the printed tables for plotting.

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ayd::io {

class CsvWriter {
 public:
  /// Writes to the given stream (not owned; must outlive the writer).
  explicit CsvWriter(std::ostream& os) : os_(&os) {}

  /// Writes one row; fields containing comma, quote, or newline are quoted.
  void write_row(const std::vector<std::string>& fields);

 private:
  std::ostream* os_;
};

/// Parses CSV text into rows of fields. Handles quoted fields with embedded
/// commas/newlines and doubled quotes. Used in tests and by any tooling
/// that wants to re-read bench output.
[[nodiscard]] std::vector<std::vector<std::string>> parse_csv(
    const std::string& text);

/// Writes rows to a file; throws util::IoError on failure.
void write_csv_file(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows);

}  // namespace ayd::io
