#include "ayd/util/strings.hpp"

#include <gtest/gtest.h>

#include "ayd/util/units.hpp"

namespace ayd::util {
namespace {

TEST(Trim, RemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t a b \n"), "a b");
  EXPECT_EQ(trim("plain"), "plain");
}

TEST(Trim, EmptyAndAllWhitespace) {
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   \t\n"), "");
}

TEST(Split, BasicFields) {
  const auto out = split("a,b,c", ',');
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "a");
  EXPECT_EQ(out[1], "b");
  EXPECT_EQ(out[2], "c");
}

TEST(Split, EmptyFieldsPreserved) {
  const auto out = split(",x,,", ',');
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], "");
  EXPECT_EQ(out[1], "x");
  EXPECT_EQ(out[2], "");
  EXPECT_EQ(out[3], "");
}

TEST(Split, EmptyInputYieldsSingleEmptyField) {
  const auto out = split("", ',');
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "");
}

TEST(Join, RoundTripsWithSplit) {
  const std::vector<std::string> parts{"x", "", "z"};
  EXPECT_EQ(join(parts, ","), "x,,z");
  EXPECT_EQ(split(join(parts, ","), ','), parts);
}

TEST(Join, EmptyVector) { EXPECT_EQ(join({}, ","), ""); }

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
}

TEST(ToLower, AsciiOnly) {
  EXPECT_EQ(to_lower("Coastal SSD"), "coastal ssd");
  EXPECT_EQ(to_lower("ABC123xyz"), "abc123xyz");
}

TEST(FormatSig, SignificantDigits) {
  EXPECT_EQ(format_sig(300.0), "300");
  EXPECT_EQ(format_sig(1.69e-8), "1.69e-08");
  EXPECT_EQ(format_sig(0.1115, 3), "0.112");
  EXPECT_EQ(format_sig(-2.5), "-2.5");
}

TEST(FormatSig, NonFinite) {
  EXPECT_EQ(format_sig(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(format_sig(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_sig(-std::numeric_limits<double>::infinity()), "-inf");
}

TEST(FormatDuration, SecondsBelowOneMinute) {
  EXPECT_EQ(format_duration(15.4), "15.4s");
  EXPECT_EQ(format_duration(0.5), "0.5s");
}

TEST(FormatDuration, MinutesAndHours) {
  EXPECT_EQ(format_duration(90.0), "1m30s");
  EXPECT_EQ(format_duration(3600.0), "1h00m");
  EXPECT_EQ(format_duration(5400.0), "1h30m");
  EXPECT_EQ(format_duration(120.0), "2m");
}

TEST(FormatDuration, Negative) { EXPECT_EQ(format_duration(-90.0), "-1m30s"); }

TEST(FormatSi, Suffixes) {
  EXPECT_EQ(format_si(999.0), "999");
  EXPECT_EQ(format_si(1200.0), "1.2k");
  EXPECT_EQ(format_si(3.4e6), "3.4M");
  EXPECT_EQ(format_si(1e12), "1T");
}

TEST(Pad, LeftAndRight) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcd", 2), "abcd");
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(hours(1.0), 3600.0);
  EXPECT_DOUBLE_EQ(minutes(2.0), 120.0);
  EXPECT_DOUBLE_EQ(days(1.0), 86400.0);
  EXPECT_DOUBLE_EQ(to_hours(7200.0), 2.0);
  EXPECT_DOUBLE_EQ(to_years(years(3.5)), 3.5);
}

}  // namespace
}  // namespace ayd::util
