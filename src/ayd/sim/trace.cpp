#include "ayd/sim/trace.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "ayd/io/csv.hpp"
#include "ayd/util/contracts.hpp"
#include "ayd/util/error.hpp"
#include "ayd/util/strings.hpp"

namespace ayd::sim {

std::string segment_kind_name(SegmentKind k) {
  switch (k) {
    case SegmentKind::kCompute: return "compute";
    case SegmentKind::kWasted: return "wasted";
    case SegmentKind::kVerify: return "verify";
    case SegmentKind::kCheckpoint: return "checkpoint";
    case SegmentKind::kRecovery: return "recovery";
    case SegmentKind::kDowntime: return "downtime";
  }
  return "unknown";
}

char segment_kind_glyph(SegmentKind k) {
  switch (k) {
    case SegmentKind::kCompute: return '=';
    case SegmentKind::kWasted: return 'x';
    case SegmentKind::kVerify: return 'v';
    case SegmentKind::kCheckpoint: return 'C';
    case SegmentKind::kRecovery: return 'R';
    case SegmentKind::kDowntime: return 'D';
  }
  return '?';
}

void Trace::add(double begin, double end, SegmentKind kind) {
  AYD_REQUIRE(end >= begin, "trace segment must have end >= begin");
  if (end == begin) return;  // zero-length segments carry no information
  if (!segments_.empty()) {
    AYD_REQUIRE(begin >= segments_.back().end - 1e-9,
                "trace segments must be appended in time order");
  }
  segments_.push_back({begin, end, kind});
}

double Trace::total_time() const {
  if (segments_.empty()) return 0.0;
  return segments_.back().end - segments_.front().begin;
}

double Trace::time_in(SegmentKind kind) const {
  double total = 0.0;
  for (const Segment& s : segments_) {
    if (s.kind == kind) total += s.duration();
  }
  return total;
}

std::string Trace::render_timeline(std::size_t width) const {
  AYD_REQUIRE(width >= 10, "timeline width too small");
  std::ostringstream os;
  if (segments_.empty()) {
    os << "(empty trace)\n";
    return os.str();
  }
  const double t0 = segments_.front().begin;
  const double t1 = segments_.back().end;
  const double span = t1 - t0;

  // For each bucket pick the kind covering the most time inside it.
  std::string line(width, ' ');
  for (std::size_t b = 0; b < width; ++b) {
    const double b0 = t0 + span * static_cast<double>(b) /
                               static_cast<double>(width);
    const double b1 = t0 + span * static_cast<double>(b + 1) /
                               static_cast<double>(width);
    std::array<double, 6> cover{};
    for (const Segment& s : segments_) {
      if (s.end <= b0 || s.begin >= b1) continue;
      const double overlap = std::min(s.end, b1) - std::max(s.begin, b0);
      cover[static_cast<std::size_t>(s.kind)] += overlap;
    }
    const auto best =
        std::max_element(cover.begin(), cover.end()) - cover.begin();
    if (cover[static_cast<std::size_t>(best)] > 0.0) {
      line[b] = segment_kind_glyph(static_cast<SegmentKind>(best));
    }
  }

  os << "t=" << util::format_duration(0.0) << " "
     << line << " t=" << util::format_duration(span) << "\n";
  os << "legend:";
  for (int k = 0; k <= static_cast<int>(SegmentKind::kDowntime); ++k) {
    const auto kind = static_cast<SegmentKind>(k);
    os << "  " << segment_kind_glyph(kind) << "=" << segment_kind_name(kind);
  }
  os << "\n";
  return os.str();
}

namespace {

double parse_time_field(const std::string& field, std::size_t row) {
  const auto v = util::parse_strict_double(field);
  if (!v.has_value() || !std::isfinite(*v) || *v < 0.0) {
    throw util::InvalidArgument("failure log row " + std::to_string(row) +
                                ": bad time value \"" + field + "\"");
  }
  return *v;
}

}  // namespace

std::vector<double> parse_failure_log_csv(const std::string& text) {
  const auto rows = io::parse_csv(text);
  std::vector<double> values;
  bool absolute_times = false;
  bool seen_content = false;
  std::size_t row_index = 0;
  for (const auto& row : rows) {
    ++row_index;
    if (row.empty() || (row.size() == 1 && util::trim(row[0]).empty())) {
      continue;  // blank lines anywhere are ignored
    }
    const std::string field = util::trim(row[0]);
    if (!seen_content) {
      seen_content = true;
      const std::string header = util::to_lower(field);
      if (header == "gap_seconds") continue;
      if (header == "failure_time") {
        absolute_times = true;
        continue;
      }
      // No recognised header: fall through and parse as a value.
    }
    values.push_back(parse_time_field(field, row_index));
  }
  if (!absolute_times) {
    if (values.empty()) {
      throw util::InvalidArgument("failure log contains no gaps");
    }
    return values;
  }
  // Absolute failure times: difference into gaps.
  if (values.size() < 2) {
    throw util::InvalidArgument(
        "failure log with absolute times needs at least two rows");
  }
  std::vector<double> gaps;
  gaps.reserve(values.size() - 1);
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (values[i] < values[i - 1]) {
      throw util::InvalidArgument(
          "failure log times must be non-decreasing (row " +
          std::to_string(i + 2) + ")");
    }
    gaps.push_back(values[i] - values[i - 1]);
  }
  return gaps;
}

std::optional<double> FailureLogReader::feed(const std::string& line) {
  ++line_index_;
  // First CSV field only, like the batch parser (extra columns in machine
  // logs are ignored).
  const auto comma = line.find(',');
  const std::string field = util::trim(
      comma == std::string::npos ? line : line.substr(0, comma));
  if (field.empty()) return std::nullopt;
  if (!seen_content_) {
    seen_content_ = true;
    const std::string header = util::to_lower(field);
    if (header == "gap_seconds") return std::nullopt;
    if (header == "failure_time") {
      absolute_times_ = true;
      return std::nullopt;
    }
    // No recognised header: fall through and parse as a value.
  }
  const double value = parse_time_field(field, line_index_);
  if (!absolute_times_) return value;
  if (!prev_time_.has_value()) {
    prev_time_ = value;
    return std::nullopt;
  }
  if (value < *prev_time_) {
    throw util::InvalidArgument(
        "failure log times must be non-decreasing (row " +
        std::to_string(line_index_) + ")");
  }
  const double gap = value - *prev_time_;
  prev_time_ = value;
  return gap;
}

std::vector<double> read_failure_log_csv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw util::IoError("cannot open failure log: " + path);
  }
  std::ostringstream os;
  os << in.rdbuf();
  return parse_failure_log_csv(os.str());
}

}  // namespace ayd::sim
