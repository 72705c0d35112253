// Replicated simulation driver.
//
// Follows the paper's experimental protocol (Section IV-A): the result of
// each experiment is an average over independent runs, each executing a
// long sequence of patterns; the expected execution overhead is estimated
// as the ratio of faulty execution time to fault-free execution time of
// the same work. Replica i draws from the RNG substream (seed, i), so the
// estimate is bit-identical no matter how many threads execute it.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ayd/core/pattern.hpp"
#include "ayd/core/segmented.hpp"
#include "ayd/exec/thread_pool.hpp"
#include "ayd/model/system.hpp"
#include "ayd/sim/protocol.hpp"
#include "ayd/stats/summary.hpp"

namespace ayd::sim {

/// Every protocol and failure world has both backends, each one segmented
/// interpreter (sim/segmented.hpp) for VC, multi-verification and
/// two-level patterns (core/segmented.hpp) and extended Systems
/// (model/correlated.hpp). A VC pattern on a plain System is each
/// interpreter's plain shape, whose draws tests/sim_bitcompat_test.cpp
/// pins bit-for-bit.
enum class Backend {
  kFast,  ///< closed-form per-segment sampler (default)
  kDes,   ///< event-queue reference simulator
};

/// Confidence level of every interval the drivers report, and of the
/// paired tests the simulated search runs on their replicas.
inline constexpr double kCiLevel = 0.95;

struct ReplicationOptions {
  /// Independent runs (the paper uses 500).
  std::size_t replicas = 120;
  /// Patterns per run (the paper uses >= 500).
  std::size_t patterns_per_replica = 160;
  std::uint64_t seed = 0xA4D2016ULL;
  Backend backend = Backend::kFast;
  /// Common random numbers: when non-null, replica i draws its unit
  /// variates from shared_units->cursor(i) instead of sampling substream
  /// (seed, i) itself. The pool must have been built for the same
  /// (failure-dist shape, seed) — sim/variate_pool.hpp — which makes the
  /// draws identical in distribution (bit-identical under the scalar
  /// tier) while sweeps over rate/period/procs pay for variate
  /// generation once. Not owned; must outlive the call. Ignored by
  /// non-unit-samplable sources' fallback paths (trace replay), which is
  /// exactly the set for which VariateCache returns no pool.
  UnitVariatePool* shared_units = nullptr;

  bool operator==(const ReplicationOptions&) const = default;
};

struct ReplicationResult {
  /// Per-replica execution overhead H = wall / (n·T·S(P)) summary.
  stats::Summary overhead;
  /// Per-replica mean pattern wall-time summary.
  stats::Summary pattern_time;
  /// Exact model predictions for comparison.
  double analytic_overhead = 0.0;
  double analytic_pattern_time = 0.0;
  /// Error-process telemetry (per pattern, averaged over everything).
  double fail_stops_per_pattern = 0.0;
  double silent_detections_per_pattern = 0.0;
  double masked_silent_per_pattern = 0.0;
  /// Shock-stream strikes of a correlated world (0 for plain systems).
  double shock_errors_per_pattern = 0.0;
  double attempts_per_pattern = 0.0;
  std::uint64_t total_patterns = 0;
  /// Replication rounds executed (1 for the fixed-count driver; the
  /// adaptive driver counts its grow-and-recheck rounds).
  int rounds = 1;
  /// True when the overhead CI met the requested relative tolerance
  /// (vacuously true for the fixed-count driver, which has no target).
  bool ci_converged = true;
};

/// Stopping rule of the adaptive replication driver: keep adding replicas
/// until the Student-t CI of the mean overhead is relatively tight, or a
/// hard replica cap is reached. Each round grows the target by a factor
/// 1.6: the next target is min(max_replicas, ceil(1.6 · current)), and
/// at least one more replica. The growth schedule is deterministic and
/// every replica i draws from RNG substream (seed, i), so the number of
/// replicas consumed — not just their values — is a pure function of
/// (system, pattern, options): same inputs ⇒ bit-identical replication
/// count and estimate on every machine and thread count.
struct AdaptiveOptions {
  /// Target: CI half-width <= ci_rel_tol · |mean overhead|.
  double ci_rel_tol = 0.05;
  /// Replicas of the first round (>= 2 so a CI exists).
  std::size_t min_replicas = 24;
  /// Hard cap; reaching it reports ci_converged = false.
  std::size_t max_replicas = 4096;

  bool operator==(const AdaptiveOptions&) const = default;
};

/// One replica's reduced measurements (simulate_overhead's intermediate).
struct ReplicaOutcome {
  double overhead = 0.0;
  double mean_pattern_time = 0.0;
  PatternStats totals;
};

/// Reusable scratch for simulate_overhead: the per-replica outcome arena.
/// A sweep that evaluates thousands of grid points calls
/// simulate_overhead once per point; handing each call the same scratch
/// keeps the steady state allocation-free (the simulators' own arenas —
/// pending set, variate block — already live inside the per-call
/// simulator). Not thread-safe: use one per calling thread (the engine's
/// evaluator keeps one per worker).
struct ReplicationScratch {
  std::vector<ReplicaOutcome> outcomes;
};

/// Patterns a chunk of a replica round holds at least. A replica of a
/// few dozen patterns costs a few microseconds, and a fork-join call's
/// dispatch a few more per helper (docs/architecture.md, "Where the
/// threads go"), so the runners give each chunk at least a few
/// microseconds of simulation; a round smaller than two chunks runs on
/// the caller. On the `optimize` benchmark's catalog, 128, 256 and 512
/// measured alike and 1024 was about a quarter slower at P = 2048.
inline constexpr std::size_t kMinPatternsPerTask = 256;

/// Simulates `replicas` independent applications of
/// `patterns_per_replica` patterns each and summarises the measured
/// execution overhead against the analytic prediction. If `pool` is
/// non-null the replicas run in parallel on it (one reusable simulator
/// per contiguous worker chunk; results are bit-identical for any thread
/// count because replica i always draws from RNG substream (seed, i)).
/// `scratch`, when given, is reused across calls.
[[nodiscard]] ReplicationResult simulate_overhead(
    const model::System& sys, const core::Pattern& pattern,
    const ReplicationOptions& opt = {}, exec::ThreadPool* pool = nullptr,
    ReplicationScratch* scratch = nullptr);

/// The adaptive driver as a resumable round stepper. Each step() runs one
/// grow-and-recheck round: it appends replicas up to the round's target
/// (replica i always draws substream (opt.seed, i)), recomputes the
/// Student-t CI over all of them, and ends the run once the CI meets
/// `adapt.ci_rel_tol` or the count reaches `adapt.max_replicas`. The
/// schedule depends only on the counts and the CI, so a caller may pause
/// a run between rounds, or drop it, and a resumed run ends on the same
/// bits as one stepped straight through (simulate_overhead_adaptive).
/// `sys` must outlive the run, and so must `scratch`, which holds the
/// outcomes when given (the run owns them otherwise). A run is movable.
class AdaptiveRun {
 public:
  AdaptiveRun(const model::System& sys, const core::Pattern& pattern,
              const ReplicationOptions& opt, const AdaptiveOptions& adapt,
              ReplicationScratch* scratch = nullptr);

  /// Runs the next round, its replicas on `pool` (null: on the caller).
  /// Requires !done().
  void step(exec::ThreadPool* pool = nullptr);

  /// Runs the next round of every run in `runs` at once: one
  /// parallel_for_chunks call over the round's new replicas, each chunk
  /// running every run on its replicas (a chunk holds kMinPatternsPerTask
  /// patterns across the runs), then each run's own CI check. The runs
  /// must share the system, the options and the round schedule (runs
  /// started together with the same options share it while they run),
  /// and each needs its own arena. Every run ends on the bits of stepping it
  /// alone. When runs throw, the exception of the earliest of them in
  /// `runs` is re-thrown. Requires !done() for each.
  static void step_together(std::span<AdaptiveRun* const> runs,
                            exec::ThreadPool* pool = nullptr);

  /// True once the CI met the tolerance or the replica cap was reached.
  [[nodiscard]] bool done() const { return done_; }

  /// Every replica run so far, in replica order.
  [[nodiscard]] const std::vector<ReplicaOutcome>& outcomes() const {
    return scratch_ != nullptr ? scratch_->outcomes : own_.outcomes;
  }

  /// The replicas so far reduced with Student-t intervals; `rounds`
  /// counts the steps, and `ci_converged` is true only once the
  /// tolerance was met.
  [[nodiscard]] ReplicationResult result() const;

 private:
  /// The CI check and schedule update that end a round.
  void finish_round();

  std::vector<ReplicaOutcome>& arena() {
    return scratch_ != nullptr ? scratch_->outcomes : own_.outcomes;
  }

  const model::System* sys_;
  core::Pattern pattern_;
  ReplicationOptions opt_;
  AdaptiveOptions adapt_;
  ReplicationScratch* scratch_;
  ReplicationScratch own_;
  std::size_t target_;
  int rounds_ = 0;
  bool converged_ = false;
  bool done_ = false;
};

/// Adaptive-replication variant: ignores `opt.replicas` and instead grows
/// the replica count on the `adapt` schedule until the Student-t CI of
/// the mean overhead satisfies `adapt.ci_rel_tol` (or `adapt.max_replicas`
/// is hit, reported via ci_converged = false). Replicas are *appended*
/// across rounds — replica i always draws substream (opt.seed, i) — so
/// the returned estimate is bit-identical to a fixed-count run at the
/// final count, and the count itself is deterministic. The returned
/// summaries carry Student-t intervals (honest at small counts), not the
/// normal-theory intervals of the fixed driver. Steps an AdaptiveRun to
/// its end.
[[nodiscard]] ReplicationResult simulate_overhead_adaptive(
    const model::System& sys, const core::Pattern& pattern,
    const ReplicationOptions& opt, const AdaptiveOptions& adapt,
    exec::ThreadPool* pool = nullptr, ReplicationScratch* scratch = nullptr);

/// Fixed-count replication of a segmented pattern (core/segmented.hpp);
/// the system type picks the protocol, opt.backend the interpreter, and
/// analytic_* carry the protocol's exponential closed form. Segmented
/// patterns have no CRN pool mode (opt.shared_units must be null).
[[nodiscard]] ReplicationResult simulate_segmented_overhead(
    const model::System& sys, const core::SegmentedPattern& pattern,
    const ReplicationOptions& opt = {}, exec::ThreadPool* pool = nullptr);
[[nodiscard]] ReplicationResult simulate_segmented_overhead(
    const core::TwoLevelSystem& sys, const core::SegmentedPattern& pattern,
    const ReplicationOptions& opt = {}, exec::ThreadPool* pool = nullptr);

}  // namespace ayd::sim
