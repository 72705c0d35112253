#include "ayd/io/csv.hpp"

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

#include "ayd/util/error.hpp"

namespace ayd::io {
namespace {

std::string write_rows(const std::vector<std::vector<std::string>>& rows) {
  std::ostringstream os;
  CsvWriter w(os);
  for (const auto& row : rows) w.write_row(row);
  return os.str();
}

TEST(CsvWriter, PlainFields) {
  EXPECT_EQ(write_rows({{"a", "b", "c"}}), "a,b,c\n");
}

TEST(CsvWriter, QuotesSpecialCharacters) {
  EXPECT_EQ(write_rows({{"a,b", "c\"d", "e\nf"}}),
            "\"a,b\",\"c\"\"d\",\"e\nf\"\n");
}

TEST(ParseCsv, SimpleRows) {
  const auto rows = parse_csv("a,b\nc,d\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(ParseCsv, QuotedFieldsWithCommasAndNewlines) {
  const auto rows = parse_csv("\"a,b\",\"line1\nline2\",\"he said \"\"hi\"\"\"\n");
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 3u);
  EXPECT_EQ(rows[0][0], "a,b");
  EXPECT_EQ(rows[0][1], "line1\nline2");
  EXPECT_EQ(rows[0][2], "he said \"hi\"");
}

TEST(ParseCsv, ToleratesCrlfAndMissingTrailingNewline) {
  const auto rows = parse_csv("a,b\r\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(ParseCsv, EmptyFields) {
  const auto rows = parse_csv(",x,\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"", "x", ""}));
}

TEST(ParseCsv, UnterminatedQuoteRejected) {
  EXPECT_THROW((void)parse_csv("\"abc"), util::InvalidArgument);
}

TEST(ParseCsv, RoundTripsWriterOutput) {
  const std::vector<std::vector<std::string>> rows{
      {"plain", "with,comma", "with\"quote"},
      {"", "second\nline", "x"},
  };
  EXPECT_EQ(parse_csv(write_rows(rows)), rows);
}

TEST(CsvFile, WriteAndReadBack) {
  const std::string path = ::testing::TempDir() + "/ayd_csv_test.csv";
  const std::vector<std::vector<std::string>> rows{{"h1", "h2"},
                                                   {"1", "2"}};
  write_csv_file(path, rows);
  std::ifstream is(path);
  std::stringstream buf;
  buf << is.rdbuf();
  EXPECT_EQ(parse_csv(buf.str()), rows);
  std::remove(path.c_str());
}

TEST(CsvFile, UnwritablePathThrows) {
  EXPECT_THROW(write_csv_file("/nonexistent_dir_xyz/file.csv", {}),
               util::IoError);
}

}  // namespace
}  // namespace ayd::io
