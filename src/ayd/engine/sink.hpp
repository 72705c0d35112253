// Pluggable result emitters.
//
// A ResultSink turns engine Records into one concrete output: an aligned
// io::Table, a CSV series, or a JSON-lines stream. Each sink owns its own
// column list (a ColumnSpec names the record field it reads and how to
// format it), so the same evaluated grid feeds a 4-digit table, a 6-digit
// CSV, and a full-precision JSONL file without re-evaluation.

#pragma once

#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "ayd/engine/record.hpp"
#include "ayd/io/table.hpp"
#include "ayd/stats/summary.hpp"

namespace ayd::engine {

/// Placeholder cell for a column that does not apply at a point (e.g. the
/// first-order solution in scenario 6).
inline const char* kNoValue = "-";

/// "0.1123 ±0.0004" — the simulated-mean cell used across all tables.
[[nodiscard]] std::string mean_ci_cell(const stats::Summary& s,
                                       int digits = 4);

/// How one output column is produced from a Record.
struct ColumnSpec {
  // NOLINTNEXTLINE(google-explicit-constructor): brace-lists of columns
  // are the engine's declaration idiom.
  ColumnSpec(std::string header, std::string key = "", int digits = 4,
             std::string suffix = "", io::Align align = io::Align::kRight)
      : header(std::move(header)),
        key(std::move(key)),
        digits(digits),
        suffix(std::move(suffix)),
        align(align) {}

  std::string header;   ///< table/CSV column header
  std::string key;      ///< record field; empty means same as `header`
  int digits = 4;       ///< significant digits for numeric fields
  std::string suffix;   ///< appended to numeric cells (e.g. "%", "x")
  io::Align align = io::Align::kRight;

  [[nodiscard]] const std::string& field() const {
    return key.empty() ? header : key;
  }
};

/// Base sink: formats each record into cells per its column specs and
/// hands them to the concrete emitter.
class ResultSink {
 public:
  explicit ResultSink(std::vector<ColumnSpec> columns);
  virtual ~ResultSink() = default;
  ResultSink(const ResultSink&) = delete;
  ResultSink& operator=(const ResultSink&) = delete;

  void write(const Record& rec);
  /// Flushes/finalises the output. Idempotent; also called by ~sinks that
  /// buffer nothing. emit() calls it for you.
  void close();

  [[nodiscard]] const std::vector<ColumnSpec>& columns() const {
    return columns_;
  }

  /// Formats one cell: numbers via util::format_sig(digits) + suffix,
  /// text verbatim, absent fields as kNoValue.
  [[nodiscard]] static std::string format_cell(const Record& rec,
                                               const ColumnSpec& col);

 protected:
  virtual void on_row(const Record& rec,
                      std::vector<std::string> cells) = 0;
  virtual void on_close() {}

 private:
  std::vector<ColumnSpec> columns_;
  bool closed_ = false;
};

/// Collects rows into an aligned io::Table.
class TableSink : public ResultSink {
 public:
  explicit TableSink(std::vector<ColumnSpec> columns);

  [[nodiscard]] const io::Table& table() const { return table_; }
  [[nodiscard]] std::string to_string() const { return table_.to_string(); }

 protected:
  void on_row(const Record& rec, std::vector<std::string> cells) override;

 private:
  io::Table table_;
};

/// Buffers rows and writes an RFC-4180 CSV file on close(). A sink with an
/// empty path is a no-op, so callers can pass --csv through untested.
/// Announces "(series written to ...)" on the announce stream (stdout by
/// default) to match the historical bench output.
class CsvSink : public ResultSink {
 public:
  CsvSink(std::string path, std::vector<ColumnSpec> columns,
          std::ostream* announce_to = nullptr);

 protected:
  void on_row(const Record& rec, std::vector<std::string> cells) override;
  void on_close() override;

 private:
  std::string path_;
  std::ostream* announce_to_;
  std::vector<std::vector<std::string>> rows_;
};

/// Streams one compact JSON object per record, keyed by the column
/// headers (matching the CSV of the same series), numbers at full
/// precision. Empty path is a no-op sink.
class JsonlSink : public ResultSink {
 public:
  JsonlSink(std::string path, std::vector<ColumnSpec> columns);

 protected:
  void on_row(const Record& rec, std::vector<std::string> cells) override;

 private:
  std::string path_;
  std::unique_ptr<std::ofstream> out_;
};

/// Writes `header` + `rows` to `path` unless it is empty, announcing the
/// file like the benches always did.
void write_series_csv(const std::string& path,
                      const std::vector<std::string>& header,
                      const std::vector<std::vector<std::string>>& rows,
                      std::ostream* announce_to = nullptr);

}  // namespace ayd::engine
