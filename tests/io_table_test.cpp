#include "ayd/io/table.hpp"

#include <gtest/gtest.h>

#include "ayd/util/error.hpp"

namespace ayd::io {
namespace {

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.set_align(0, Align::kLeft);
  t.add_row({"x", "1"});
  t.add_row({"longer", "23456"});
  const std::string out = t.to_string();
  // Every line has equal length (header, rule, two rows).
  std::istringstream is(out);
  std::string line;
  std::size_t width = 0;
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width) << out;
  }
}

TEST(Table, RightAlignmentPadsLeft) {
  Table t({"v"});
  t.add_row({"1"});
  t.add_row({"100"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("  1\n"), std::string::npos) << out;
}

TEST(Table, MarkdownStyle) {
  Table t({"h1", "h2"}, Table::Style::kMarkdown);
  t.add_row({"a", "b"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| h1 | h2 |"), std::string::npos) << out;
  EXPECT_NE(out.find("|---"), std::string::npos) << out;
}

TEST(Table, RowWidthValidated) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), util::InvalidArgument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), util::InvalidArgument);
}

TEST(Table, EmptyHeadersRejected) {
  EXPECT_THROW(Table({}), util::InvalidArgument);
}

TEST(Table, CountsRowsAndColumns) {
  Table t({"a", "b", "c"});
  EXPECT_EQ(t.columns(), 3u);
  t.add_row({"1", "2", "3"});
  t.add_row({"4", "5", "6"});
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, SetAlignValidatesColumn) {
  Table t({"a"});
  EXPECT_THROW(t.set_align(1, Align::kLeft), util::InvalidArgument);
}

}  // namespace
}  // namespace ayd::io
