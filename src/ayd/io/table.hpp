// Aligned text tables.
//
// Every bench binary prints its figure/table reproduction through this
// printer so outputs are uniform, greppable, and directly comparable with
// the rows the paper reports.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ayd::io {

enum class Align { kLeft, kRight };

class Table {
 public:
  enum class Style { kAscii, kMarkdown };

  /// Creates a table with the given column headers (all right-aligned by
  /// default; numbers dominate our outputs).
  explicit Table(std::vector<std::string> headers,
                 Style style = Style::kAscii);

  /// Sets the alignment of one column.
  void set_align(std::size_t column, Align align);

  /// Appends a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t columns() const { return headers_.size(); }

  /// Renders to a string.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<Align> aligns_;
  std::vector<std::vector<std::string>> rows_;
  Style style_;
};

}  // namespace ayd::io
