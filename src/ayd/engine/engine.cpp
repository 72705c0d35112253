#include "ayd/engine/engine.hpp"

#include <utility>

namespace ayd::engine {

std::vector<Record> run_points(const std::vector<Point>& pts,
                               exec::ThreadPool* pool, const EvalFn& eval) {
  if (pool != nullptr) {
    return exec::parallel_map(*pool, pts.size(), [&](std::size_t i) {
      return eval(pts[i]);
    });
  }
  std::vector<Record> out;
  out.reserve(pts.size());
  for (const Point& pt : pts) out.push_back(eval(pt));
  return out;
}

std::vector<Record> run_grid(const GridSpec& grid, exec::ThreadPool* pool,
                             const EvalFn& eval) {
  return run_points(grid.points(), pool, eval);
}

void emit(const std::vector<Record>& records,
          std::initializer_list<ResultSink*> sinks) {
  for (const Record& rec : records) {
    for (ResultSink* sink : sinks) sink->write(rec);
  }
  for (ResultSink* sink : sinks) sink->close();
}

void emit(const std::vector<const Record*>& records,
          std::initializer_list<ResultSink*> sinks) {
  for (const Record* rec : records) {
    for (ResultSink* sink : sinks) sink->write(*rec);
  }
  for (ResultSink* sink : sinks) sink->close();
}

std::vector<std::pair<std::string, std::vector<const Record*>>> group_by(
    const std::vector<Record>& records, std::string_view key) {
  std::vector<std::pair<std::string, std::vector<const Record*>>> groups;
  for (const Record& rec : records) {
    const std::string& label = rec.text(key);
    bool found = false;
    for (auto& [name, members] : groups) {
      if (name == label) {
        members.push_back(&rec);
        found = true;
        break;
      }
    }
    if (!found) groups.emplace_back(label, std::vector<const Record*>{&rec});
  }
  return groups;
}

std::vector<double> collect(const std::vector<const Record*>& records,
                            std::string_view key) {
  std::vector<double> out;
  out.reserve(records.size());
  for (const Record* rec : records) out.push_back(rec->num(key));
  return out;
}

io::Table pivot(const std::vector<Record>& records, const ColumnSpec& row,
                std::string_view column_label_key, const ColumnSpec& value) {
  // Distinct row cells and column labels, in first-appearance order.
  std::vector<std::string> row_cells;
  std::vector<std::string> col_labels;
  for (const Record& rec : records) {
    const std::string cell = ResultSink::format_cell(rec, row);
    bool seen = false;
    for (const std::string& r : row_cells) {
      if (r == cell) { seen = true; break; }
    }
    if (!seen) row_cells.push_back(cell);

    const std::string& label = rec.text(column_label_key);
    seen = false;
    for (const std::string& c : col_labels) {
      if (c == label) { seen = true; break; }
    }
    if (!seen) col_labels.push_back(label);
  }

  std::vector<std::string> headers{row.header};
  headers.insert(headers.end(), col_labels.begin(), col_labels.end());
  io::Table table(std::move(headers));

  for (const std::string& row_cell : row_cells) {
    std::vector<std::string> cells{row_cell};
    for (const std::string& label : col_labels) {
      std::string cell = kNoValue;
      for (const Record& rec : records) {
        if (rec.text(column_label_key) == label &&
            ResultSink::format_cell(rec, row) == row_cell) {
          cell = ResultSink::format_cell(rec, value);
          break;
        }
      }
      cells.push_back(std::move(cell));
    }
    table.add_row(std::move(cells));
  }
  return table;
}

}  // namespace ayd::engine
