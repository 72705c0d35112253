// Writes failure logs in the CSV format sim::read_failure_log_csv reads
// (sim/trace.hpp), so tests can build trace-replay inputs on disk.

#pragma once

#include <string>
#include <vector>

namespace ayd::sim {

/// Writes inter-arrival gaps as a "gap_seconds" failure-log CSV at full
/// precision; throws util::IoError on failure.
void write_failure_log_csv(const std::string& path,
                           const std::vector<double>& gaps);

}  // namespace ayd::sim
