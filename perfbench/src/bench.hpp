// Shared infrastructure of the repository benchmark: timing, percentiles,
// the Zipf sampler, the in-memory span tracer, the metric report and the
// workload interface every workload implements.
//
// A workload is one user-facing job (optimize, sweep, serve, watch). The
// main program (main.cpp) sets it up several times, runs its timed closed loop
// for the requested wall time, checks its outputs, and prints every
// metric by name with its unit. The traced run additionally records
// spans around the public library calls the workload makes and turns
// them into per-layer metrics.

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ayd/rng/stream.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

// ---- percentiles -------------------------------------------------------

/// A nearest-rank percentile with its sample count. `ok` is false when
/// the sample holds fewer than kMinBeyond values beyond the percentile's
/// rank: such a percentile is refused rather than reported.
struct Percentile {
  double value = 0.0;
  std::size_t count = 0;
  std::size_t beyond = 0;
  bool ok = false;
};

inline constexpr std::size_t kMinBeyond = 10;

/// q in (0, 1). Sorts a copy of `xs`.
[[nodiscard]] Percentile percentile(std::vector<double> xs, double q);

/// Plain median (0 for an empty sample), for sub-samples that are not
/// reported as percentiles (repeated set-up times, layer calibrations).
[[nodiscard]] double median(std::vector<double> xs);

/// Latency samples in bounded memory: every value up to kCapacity, then a
/// uniform reservoir with deterministic replacement, so the process's peak
/// RSS does not grow with the throughput it is measuring.
class Samples {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 17;

  void add(double x);
  /// Adds every value `other` kept.
  void merge(const Samples& other);
  [[nodiscard]] const std::vector<double>& values() const { return kept_; }
  /// Values offered, kept or not.
  [[nodiscard]] std::size_t seen() const { return seen_; }

 private:
  std::vector<double> kept_;
  std::size_t seen_ = 0;
  std::uint64_t state_ = 0x9E3779B97F4A7C15ULL;
};

// ---- Zipf --------------------------------------------------------------

/// Rank r in [0, n) drawn with weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t draw(ayd::rng::RngStream& rng) const;
  /// Normalised probability of rank r.
  [[nodiscard]] double probability(std::size_t r) const;

 private:
  std::vector<double> cumulative_;
};

// ---- tracing -----------------------------------------------------------

/// One recorded span. Times are nanoseconds since the tracer's epoch.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint64_t request = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Process-wide span recorder. Spans go to per-thread buffers (no lock
/// on the recording path); the parent of a span is the innermost open
/// span of the recording thread. Disabled, a scope costs one relaxed
/// load.
class Tracer {
 public:
  class Scope {
   public:
    Scope(const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Renames the span before it closes (for outcomes known only at the
    /// end, like a cache hit or miss). `name` must outlive the tracer.
    void rename(const char* name) { span_.name = name; }
    /// Discards the span (sampling of very frequent, very short spans).
    /// Spans opened inside it must already be closed.
    void drop();

   private:
    Span span_;
    std::uint64_t saved_parent_ = 0;
    bool active_ = false;
  };

  static void enable(bool on);
  [[nodiscard]] static bool enabled();
  /// Every span recorded so far, across threads (recording threads must
  /// be quiescent).
  [[nodiscard]] static std::vector<Span> collect();
  static void clear();
};

/// Self time of each span (same order as `spans`): its duration minus the
/// union of its children's intervals clipped to its own.
[[nodiscard]] std::vector<double> self_times_ns(const std::vector<Span>& spans);

/// Span durations grouped by span name.
struct SpanIndex {
  std::map<std::string, std::vector<double>> duration_ns;

  [[nodiscard]] static SpanIndex build(const std::vector<Span>& spans);
  /// Median duration of `name` (0 when never recorded).
  [[nodiscard]] double median_ns(const std::string& name) const;
  [[nodiscard]] double total_ns(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;
};

/// Writes one JSON object per span (NDJSON, with its self time) to `path`,
/// creating parent directories. Returns false when the file cannot be
/// written.
bool write_ndjson(const std::string& path, const std::vector<Span>& spans);

// ---- results -----------------------------------------------------------

/// Correctness bookkeeping: every check counts as attempted, every
/// mismatch as failed (the first few are printed to stderr).
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void expect(bool ok, const std::string& what);
};

/// One measured metric: value, unit, and the base it was computed from
/// (sample count, or numerator/denominator of a ratio).
struct Metric {
  double value = 0.0;
  std::string unit;
  std::string base;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& base = "");
  [[nodiscard]] const std::map<std::string, Metric>& metrics() const {
    return metrics_;
  }

 private:
  std::map<std::string, Metric> metrics_;
};

/// "n=..." / "a/b" helpers for metric bases.
[[nodiscard]] std::string base_count(std::size_t n);
[[nodiscard]] std::string base_ratio(double num, double den);

// ---- workloads ---------------------------------------------------------

/// What one timed loop measured. Latencies are per op, in seconds; `hot`
/// and `cold` split them into the workload's cheap and expensive path.
/// Completions are counted in kWindows equal slices of the requested run
/// time (the last slice absorbs any overrun).
struct LoopResult {
  static constexpr std::size_t kWindows = 10;

  explicit LoopResult(double seconds) : window_s(seconds / kWindows) {}

  /// Counts one completed op, `elapsed` seconds after the loop started.
  void completed(double elapsed);
  /// Adds another caller's counts and samples (same run time).
  void merge(const LoopResult& other);
  /// Ops completed per second in each slice. Their median is the reported
  /// throughput, so a burst of interference from outside the process moves
  /// one slice, not the result.
  [[nodiscard]] std::vector<double> window_rates() const;

  std::size_t ops = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
  double window_s;
  std::array<std::size_t, kWindows> window_ops{};
  Samples latency;
  Samples hot;
  Samples cold;
};

/// Short descriptions of the workload's op classes, for the report.
struct OpClasses {
  const char* op;
  const char* hot;
  const char* cold;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual OpClasses classes() const = 0;
  /// Canonical serialisation of the generated inputs (a pure function of
  /// the seed; the self-tests pin that).
  [[nodiscard]] virtual std::string inputs_text() const = 0;
  /// Builds pools, services and segments and warms them up. Called once
  /// per instance.
  virtual void setup() = 0;
  /// The closed loop: issues ops until `seconds` of wall time have passed.
  /// With tracing on, ops additionally record spans around the library
  /// calls (and rebuild entry points from public calls where possible).
  [[nodiscard]] virtual LoopResult run(double seconds) = 0;
  /// Output checks outside the timed region.
  virtual void check(Checks& checks) = 0;
  /// Per-layer metrics from the spans and counters of traced runs.
  virtual void layer_metrics(const SpanIndex& spans, Report& report) = 0;
};

/// Workload names in report order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds workload `name` from `seed` (inputs generated here, nothing run)
/// with `threads` total threads. Returns null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      unsigned threads);

std::unique_ptr<Workload> make_optimize(std::uint64_t seed, unsigned threads);
std::unique_ptr<Workload> make_sweep(std::uint64_t seed, unsigned threads);
std::unique_ptr<Workload> make_serve(std::uint64_t seed, unsigned threads);
std::unique_ptr<Workload> make_watch(std::uint64_t seed, unsigned threads);

/// Directory (relative to the working directory, the checkout root) for
/// files the benchmark writes: traces and the serve workload's store.
[[nodiscard]] std::string output_dir();

/// fnv1a64 hex digest (input fingerprints in the run record).
[[nodiscard]] std::string hex_digest(const std::string& text);

}  // namespace pb
