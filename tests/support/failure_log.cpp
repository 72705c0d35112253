#include "support/failure_log.hpp"

#include <cstdio>

#include "ayd/io/csv.hpp"

namespace ayd::sim {

void write_failure_log_csv(const std::string& path,
                           const std::vector<double>& gaps) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(gaps.size() + 1);
  rows.push_back({"gap_seconds"});
  for (const double g : gaps) {
    // 17 significant digits always round-trip a double, so the log is
    // lossless.
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", g);
    rows.push_back({buf});
  }
  io::write_csv_file(path, rows);
}

}  // namespace ayd::sim
