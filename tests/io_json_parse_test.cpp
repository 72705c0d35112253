// Unit tests of the JSON parser (io/json_parse): RFC 8259 acceptance,
// error rejection, integer preservation, and exact round-tripping through
// the JsonWriter (the property the service's canonical re-serialisation
// and byte-identical cached replies stand on).

#include "ayd/io/json_parse.hpp"

#include <clocale>
#include <gtest/gtest.h>
#include <sstream>
#include <string>

#include "ayd/io/json.hpp"
#include "ayd/util/error.hpp"

namespace ayd::io {
namespace {

/// Installs a comma-decimal LC_NUMERIC for one test (restored on
/// destruction) or reports that none is available on this host.
class CommaLocaleGuard {
 public:
  CommaLocaleGuard() {
    static const char* const kCandidates[] = {
        "de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8",
        "de_DE",       "fr_FR",      "nl_NL.UTF-8"};
    for (const char* name : kCandidates) {
      if (std::setlocale(LC_NUMERIC, name) != nullptr) {
        // Only a locale that actually uses ',' exercises the bug.
        if (std::localeconv()->decimal_point[0] == ',') {
          installed_ = true;
          return;
        }
      }
    }
    std::setlocale(LC_NUMERIC, "C");
  }
  ~CommaLocaleGuard() { std::setlocale(LC_NUMERIC, "C"); }
  [[nodiscard]] bool installed() const { return installed_; }

 private:
  bool installed_ = false;
};

std::string reserialize(const std::string& text) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  parse_json(text).write(w);
  return os.str();
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_EQ(parse_json("42").as_int(), 42);
  EXPECT_EQ(parse_json("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(parse_json("2.5").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(parse_json("1e-8").as_double(), 1e-8);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, IntegerVsDoubleIsPreserved) {
  EXPECT_TRUE(parse_json("7").is_integer());
  EXPECT_FALSE(parse_json("7.0").is_integer());
  EXPECT_FALSE(parse_json("7e0").is_integer());
  EXPECT_DOUBLE_EQ(parse_json("7.0").as_double(), 7.0);
  // An integer literal past int64 falls back to double instead of failing.
  const JsonValue big = parse_json("99999999999999999999");
  EXPECT_TRUE(big.is_number());
  EXPECT_FALSE(big.is_integer());
  EXPECT_GT(big.as_double(), 9.9e19);
}

TEST(JsonParse, ObjectsKeepMemberOrderAndSupportLookup) {
  const JsonValue v = parse_json(R"({"b": 1, "a": {"c": [1, 2, 3]}})");
  ASSERT_TRUE(v.is_object());
  const auto members = JsonValue(v).members();
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0].first, "b");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(v.at("b").as_int(), 1);
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.at("a").at("c").as_array().size(), 3u);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)v.at("missing"), util::InvalidArgument);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\/d")").as_string(), "a\"b\\c/d");
  EXPECT_EQ(parse_json(R"("tab\there")").as_string(), "tab\there");
  EXPECT_EQ(parse_json(R"("\u0041")").as_string(), "A");
  // Non-ASCII BMP code point -> UTF-8.
  EXPECT_EQ(parse_json(R"("\u00e9")").as_string(), "\xc3\xa9");
  // Surrogate pair -> 4-byte UTF-8 (U+1F600).
  EXPECT_EQ(parse_json(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonParse, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "01", "1.",
        "1e", "+1", "\"unterminated", "\"bad\\q\"", "{\"a\":1} trailing",
        "{'a':1}", "[1 2]", "\"\\ud800\"", "nan", "{\"a\":1,}"}) {
    EXPECT_THROW((void)parse_json(bad), util::InvalidArgument) << bad;
  }
  // Raw control characters must be escaped.
  EXPECT_THROW((void)parse_json("\"a\nb\""), util::InvalidArgument);
}

TEST(JsonParse, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  deep += "1";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_THROW((void)parse_json(deep, /*max_depth=*/64),
               util::InvalidArgument);
  EXPECT_NO_THROW((void)parse_json(deep, /*max_depth=*/128));
}

TEST(JsonParse, CompactReserializationIsStable) {
  // parse -> write -> parse -> write is a fixed point: the canonical
  // compact form the service caches and compares.
  const std::string text =
      R"({"op":"optimize","id":3,"procs":512,"alpha":0.1,)"
      R"("lambda":9.9999999999999998e-09,"flags":[true,false,null],)"
      R"("note":"a\"b"})";
  const std::string once = reserialize(text);
  EXPECT_EQ(reserialize(once), once);
  // Integers stay integers, and doubles keep their exact value (%g drops
  // redundant digits: the double written as 9.9999999999999998e-09 IS
  // 1e-08, and canonicalises to the shorter spelling).
  EXPECT_NE(once.find("\"id\":3"), std::string::npos);
  EXPECT_NE(once.find("\"lambda\":1e-08"), std::string::npos);
  EXPECT_DOUBLE_EQ(parse_json(once).at("lambda").as_double(), 1e-8);
}

TEST(JsonParse, WhitespaceIsTolerantOutsideStrings) {
  const JsonValue v = parse_json("  \t{ \"a\" : [ 1 , 2 ] }\r\n ");
  EXPECT_EQ(v.at("a").as_array()[1].as_int(), 2);
}

TEST(JsonParse, NumbersAreLocaleIndependent) {
  // Regression: the parser used std::strtod, which honours LC_NUMERIC —
  // under a comma-decimal locale it stopped at the '.' and silently
  // truncated "0.5" to 0. std::from_chars is locale-independent by
  // specification; this pins it under a hostile locale when the host has
  // one installed.
  CommaLocaleGuard locale;
  if (!locale.installed()) {
    GTEST_SKIP() << "no comma-decimal locale installed on this host; the "
                    "from_chars fix is locale-independent by construction";
  }
  const JsonValue v = parse_json(R"({"a":0.5,"b":1.25e-3,"c":-7.75})");
  EXPECT_EQ(v.at("a").as_double(), 0.5);
  EXPECT_EQ(v.at("b").as_double(), 1.25e-3);
  EXPECT_EQ(v.at("c").as_double(), -7.75);
  // And the writer emits '.' regardless of the locale (to_chars).
  EXPECT_EQ(reserialize(R"({"a":0.5})"), R"({"a":0.5})");
}

TEST(JsonParse, NumberRangeLimits) {
  // Overflow is an error; underflow resolves to the nearest
  // representable value (zero), matching the old strtod behaviour.
  EXPECT_THROW((void)parse_json("1e999"), util::Error);
  EXPECT_THROW((void)parse_json("-1e999"), util::Error);
  EXPECT_EQ(parse_json("1e-999").as_double(), 0.0);
}

}  // namespace
}  // namespace ayd::io
