#include "ayd/io/table.hpp"

#include <algorithm>
#include <sstream>

#include "ayd/util/contracts.hpp"
#include "ayd/util/strings.hpp"

namespace ayd::io {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)), aligns_(headers_.size(), Align::kRight) {
  AYD_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void Table::set_align(std::size_t column, Align align) {
  AYD_REQUIRE(column < headers_.size(), "column index out of range");
  aligns_[column] = align;
}

void Table::add_row(std::vector<std::string> cells) {
  AYD_REQUIRE(cells.size() == headers_.size(),
              "row width does not match header count");
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  const auto render_cell = [&](const std::string& s, std::size_t c) {
    return aligns_[c] == Align::kRight ? util::pad_left(s, widths[c])
                                       : util::pad_right(s, widths[c]);
  };

  std::ostringstream os;
  const auto render_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << "  ";
      os << render_cell(cells[c], c);
    }
    os << "\n";
  };

  render_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c ? 2 : 0);
  }
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) render_row(row);
  return os.str();
}

}  // namespace ayd::io
