// Execution traces: a list of labelled time segments recorded by the DES
// protocol simulator, with an ASCII timeline renderer used by the
// failure_timeline example and by debugging sessions. Also home of the
// failure-log CSV format that feeds trace-replay failure distributions
// (model::FailureDistSpec::trace_replay).

#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace ayd::sim {

enum class SegmentKind : int {
  kCompute,     ///< useful work
  kWasted,      ///< work destroyed by an error (re-executed later)
  kVerify,      ///< verification V_P
  kCheckpoint,  ///< checkpoint C_P
  kRecovery,    ///< recovery R_P
  kDowntime,    ///< downtime D after a fail-stop error
};

[[nodiscard]] std::string segment_kind_name(SegmentKind k);
/// One-character glyph for timeline rendering.
[[nodiscard]] char segment_kind_glyph(SegmentKind k);

struct Segment {
  double begin = 0.0;
  double end = 0.0;
  SegmentKind kind = SegmentKind::kCompute;
  [[nodiscard]] double duration() const { return end - begin; }
};

class Trace {
 public:
  void add(double begin, double end, SegmentKind kind);

  [[nodiscard]] const std::vector<Segment>& segments() const {
    return segments_;
  }
  [[nodiscard]] bool empty() const { return segments_.empty(); }
  [[nodiscard]] double total_time() const;
  [[nodiscard]] double time_in(SegmentKind kind) const;

  /// Renders the whole trace as a glyph-per-bucket timeline, `width`
  /// buckets wide, with a legend. Each bucket shows the kind that occupies
  /// most of it.
  [[nodiscard]] std::string render_timeline(std::size_t width = 100) const;

 private:
  std::vector<Segment> segments_;
};

// -- Failure-log CSV ----------------------------------------------------
//
// One inter-arrival gap in seconds per row, full precision, under a
// "gap_seconds" header:
//     gap_seconds
//     86400
//     3612.25
// The reader also accepts a column of absolute failure times under a
// "failure_time" header (non-decreasing — equal stamps yield zero gaps —
// differenced into gaps on load), the shape raw machine logs usually
// take.

/// Parses failure-log CSV text into inter-arrival gaps. Throws
/// util::InvalidArgument on malformed rows or an empty log.
[[nodiscard]] std::vector<double> parse_failure_log_csv(
    const std::string& text);

/// Reads and parses a failure-log CSV file.
[[nodiscard]] std::vector<double> read_failure_log_csv(
    const std::string& path);

/// Incremental line-at-a-time reader of the failure-log CSV format, for
/// streaming consumers (`ayd watch`, the service's `subscribe` op) that
/// cannot wait for the whole log. Recognises the same two headers as
/// parse_failure_log_csv and the same headerless fallback; in
/// absolute-time mode rows are differenced on the fly.
///
/// feed() throws util::InvalidArgument on a malformed row (same message
/// vocabulary as the batch parser); the reader remains usable afterwards
/// — the bad line is dropped, prior state is kept — so a telemetry
/// front-end can report the error and keep consuming.
class FailureLogReader {
 public:
  /// Feeds one raw line (without the newline). Returns the gap this line
  /// completes: every value row in gap mode, every row after the first in
  /// absolute-time mode. Blank lines and the header row return nullopt.
  std::optional<double> feed(const std::string& line);

  /// True once a "failure_time" header switched the reader to
  /// absolute-time differencing.
  [[nodiscard]] bool absolute_times() const { return absolute_times_; }
  /// Lines fed so far (including blanks and the header; 1-based in error
  /// messages).
  [[nodiscard]] std::size_t lines() const { return line_index_; }

 private:
  bool absolute_times_ = false;
  bool seen_content_ = false;
  std::optional<double> prev_time_;
  std::size_t line_index_ = 0;
};

}  // namespace ayd::sim
