#include "ayd/engine/sink.hpp"

#include <cstdio>
#include <utility>

#include "ayd/io/csv.hpp"
#include "ayd/io/json.hpp"
#include "ayd/util/contracts.hpp"
#include "ayd/util/error.hpp"
#include "ayd/util/strings.hpp"

namespace ayd::engine {

std::string mean_ci_cell(const stats::Summary& s, int digits) {
  return util::format_sig(s.mean, digits) + " ±" +
         util::format_sig(s.ci.half_width(), 2);
}

ResultSink::ResultSink(std::vector<ColumnSpec> columns)
    : columns_(std::move(columns)) {
  AYD_REQUIRE(!columns_.empty(), "a sink needs at least one column");
}

std::string ResultSink::format_cell(const Record& rec,
                                    const ColumnSpec& col) {
  const Value* v = rec.find(col.field());
  if (v == nullptr) return kNoValue;
  if (v->kind == Value::Kind::kText) return v->text;
  return util::format_sig(v->number, col.digits) + col.suffix;
}

void ResultSink::write(const Record& rec) {
  AYD_REQUIRE(!closed_, "write() on a closed sink");
  std::vector<std::string> cells;
  cells.reserve(columns_.size());
  for (const ColumnSpec& col : columns_) {
    cells.push_back(format_cell(rec, col));
  }
  on_row(rec, std::move(cells));
}

void ResultSink::close() {
  if (closed_) return;
  closed_ = true;
  on_close();
}

namespace {

std::vector<std::string> headers_of(const std::vector<ColumnSpec>& cols) {
  std::vector<std::string> out;
  out.reserve(cols.size());
  for (const ColumnSpec& c : cols) out.push_back(c.header);
  return out;
}

}  // namespace

TableSink::TableSink(std::vector<ColumnSpec> columns)
    : ResultSink(std::move(columns)), table_(headers_of(this->columns())) {
  for (std::size_t i = 0; i < this->columns().size(); ++i) {
    table_.set_align(i, this->columns()[i].align);
  }
}

void TableSink::on_row(const Record&, std::vector<std::string> cells) {
  table_.add_row(std::move(cells));
}

CsvSink::CsvSink(std::string path, std::vector<ColumnSpec> columns,
                 std::ostream* announce_to)
    : ResultSink(std::move(columns)),
      path_(std::move(path)),
      announce_to_(announce_to) {}

void CsvSink::on_row(const Record&, std::vector<std::string> cells) {
  if (path_.empty()) return;
  rows_.push_back(std::move(cells));
}

void CsvSink::on_close() {
  if (path_.empty()) return;
  write_series_csv(path_, headers_of(columns()), rows_, announce_to_);
}

JsonlSink::JsonlSink(std::string path, std::vector<ColumnSpec> columns)
    : ResultSink(std::move(columns)), path_(std::move(path)) {
  if (path_.empty()) return;
  out_ = std::make_unique<std::ofstream>(path_);
  if (!*out_) {
    throw util::Error("cannot open JSONL output file: " + path_);
  }
}

void JsonlSink::on_row(const Record& rec, std::vector<std::string>) {
  if (!out_) return;
  io::JsonWriter json(*out_);
  json.begin_object();
  for (const ColumnSpec& col : columns()) {
    const Value* v = rec.find(col.field());
    json.key(col.header);
    if (v == nullptr) {
      json.null();
    } else if (v->kind == Value::Kind::kText) {
      json.value(v->text);
    } else {
      json.value(v->number);
    }
  }
  json.end_object();
  *out_ << '\n';
}

void write_series_csv(const std::string& path,
                      const std::vector<std::string>& header,
                      const std::vector<std::vector<std::string>>& rows,
                      std::ostream* announce_to) {
  if (path.empty()) return;
  std::vector<std::vector<std::string>> all;
  all.reserve(rows.size() + 1);
  all.push_back(header);
  all.insert(all.end(), rows.begin(), rows.end());
  io::write_csv_file(path, all);
  if (announce_to != nullptr) {
    *announce_to << "(series written to " << path << ")\n";
  } else {
    std::printf("(series written to %s)\n", path.c_str());
  }
}

}  // namespace ayd::engine
