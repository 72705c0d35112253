#include "ayd/io/csv.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "ayd/util/contracts.hpp"
#include "ayd/util/error.hpp"

namespace ayd::io {

namespace {

bool needs_quoting(const std::string& f) {
  return f.find_first_of(",\"\n\r") != std::string::npos;
}

std::string quote(const std::string& f) {
  std::string out = "\"";
  for (const char c : f) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) *os_ << ',';
    *os_ << (needs_quoting(fields[i]) ? quote(fields[i]) : fields[i]);
  }
  *os_ << '\n';
}

std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;

  const auto end_field = [&] {
    row.push_back(field);
    field.clear();
    field_started = false;
  };
  const auto end_row = [&] {
    end_field();
    rows.push_back(row);
    row.clear();
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        field_started = true;
        break;
      case ',':
        end_field();
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        end_row();
        break;
      default:
        field += c;
        field_started = true;
        break;
    }
  }
  AYD_REQUIRE(!in_quotes, "unterminated quoted CSV field");
  if (field_started || !field.empty() || !row.empty()) end_row();
  return rows;
}

void write_csv_file(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows) {
  std::ofstream os(path);
  if (!os) throw util::IoError("cannot open for writing: " + path);
  CsvWriter w(os);
  for (const auto& row : rows) w.write_row(row);
  if (!os) throw util::IoError("write failed: " + path);
}

}  // namespace ayd::io
