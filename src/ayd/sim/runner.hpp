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

#include "ayd/core/pattern.hpp"
#include "ayd/exec/thread_pool.hpp"
#include "ayd/model/system.hpp"
#include "ayd/sim/protocol.hpp"
#include "ayd/stats/summary.hpp"

namespace ayd::sim {

/// Every protocol and failure world has both backends. A VC pattern on a
/// plain System runs the bit-pinned simulators (sim/protocol.hpp);
/// extended Systems (model/correlated.hpp), multi-verification
/// (sim/multi_protocol.hpp) and two-level patterns
/// (sim/two_level_protocol.hpp) run the segmented-pattern interpreters
/// (sim/segmented.hpp).
enum class Backend {
  kFast,  ///< closed-form per-segment sampler (default)
  kDes,   ///< event-queue reference simulator
};

struct ReplicationOptions {
  /// Independent runs (the paper uses 500).
  std::size_t replicas = 120;
  /// Patterns per run (the paper uses >= 500).
  std::size_t patterns_per_replica = 160;
  std::uint64_t seed = 0xA4D2016ULL;
  Backend backend = Backend::kFast;
  double ci_level = 0.95;
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
/// hard replica cap is reached. The growth schedule is deterministic and
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
  /// Round-size multiplier (> 1); next target is
  /// min(max_replicas, ceil(growth · current)).
  double growth = 1.6;
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
/// event queue, variate block — already live inside the per-call
/// simulator). Not thread-safe: use one per calling thread (the engine's
/// evaluator keeps one per worker).
struct ReplicationScratch {
  std::vector<ReplicaOutcome> outcomes;
};

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

/// Adaptive-replication variant: ignores `opt.replicas` and instead grows
/// the replica count on the `adapt` schedule until the Student-t CI of
/// the mean overhead satisfies `adapt.ci_rel_tol` (or `adapt.max_replicas`
/// is hit, reported via ci_converged = false). Replicas are *appended*
/// across rounds — replica i always draws substream (opt.seed, i) — so
/// the returned estimate is bit-identical to a fixed-count run at the
/// final count, and the count itself is deterministic. The returned
/// summaries carry Student-t intervals (honest at small counts), not the
/// normal-theory intervals of the fixed driver.
[[nodiscard]] ReplicationResult simulate_overhead_adaptive(
    const model::System& sys, const core::Pattern& pattern,
    const ReplicationOptions& opt, const AdaptiveOptions& adapt,
    exec::ThreadPool* pool = nullptr, ReplicationScratch* scratch = nullptr);

}  // namespace ayd::sim
