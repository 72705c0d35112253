// Replicated simulation driver.
//
// Follows the paper's experimental protocol (Section IV-A): the result of
// each experiment is an average over independent runs, each executing a
// long sequence of patterns; the expected execution overhead is estimated
// as the ratio of faulty execution time to fault-free execution time of
// the same work. Replica i draws from the RNG substream (seed, i), so the
// estimate is bit-identical no matter how many threads execute it.
//
// One driver serves every protocol (VC, multi-verification, two-level)
// and every failure world. A run resolves its (system, pattern, options)
// once into a ReplicaPlan; each chunk of replicas borrows the plan's
// simulator part instead of rebuilding it. The fixed-count driver
// (replicate) and the adaptive one (AdaptiveRun) share one replica loop
// and differ only in their reductions: normal-theory intervals for a
// fixed count, Student-t for an adaptive one. The simulate_* functions
// below are names for those two.

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
  /// generation once. Not owned; must outlive the run. Only runs crn_pool
  /// would build a pool for take one (VC patterns on a plain System with
  /// an eligible law); any other run refuses it when it is resolved.
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

/// Reusable scratch for the drivers: the per-replica outcome arena. A
/// sweep that evaluates thousands of grid points runs one replication per
/// point; handing each the same scratch keeps the outcome arena from
/// regrowing (the simulators' own arenas — pending set, variate block —
/// live in each chunk's simulator). Not thread-safe: use one per calling
/// thread (the engine's evaluator keeps one per worker).
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

/// One run's (system, pattern, options), resolved once for every pair the
/// simulators accept: the simulators' read-only part, which every chunk's
/// simulator borrows, and what the reduction reads. The system type picks
/// the protocol as in core/segmented.hpp. Construction checks the
/// options, and refuses a CRN pool the run cannot read
/// (require_crn_pool). The plan keeps the system's address only to tell
/// runs apart (AdaptiveRun::step_together).
struct ReplicaPlan {
  /// A VC pattern.
  ReplicaPlan(const model::System& sys, const core::Pattern& pattern,
              const ReplicationOptions& opt);
  /// A multi-verification or two-level pattern.
  ReplicaPlan(const core::SegmentedProtocol& sys,
              const core::SegmentedPattern& pattern,
              const ReplicationOptions& opt);

  SimulationPlan simulation;
  ReplicationOptions options;
  const model::System* system;
  double period;   ///< T
  double speedup;  ///< S(P)
  /// The protocol's exponential closed form at the pattern (Proposition
  /// 1's for a VC pattern).
  double analytic_overhead;
  double analytic_pattern_time;
};

/// The fixed-count driver: plan.options.replicas independent runs of
/// plan.options.patterns_per_replica patterns each, summarised with
/// normal-theory intervals against the closed form. If `pool` is non-null
/// the replicas run in parallel on it, in contiguous chunks; results are
/// bit-identical for any thread count because replica i always draws
/// from RNG substream (seed, i). `scratch`, when given, is reused across
/// calls.
[[nodiscard]] ReplicationResult replicate(
    const ReplicaPlan& plan, exec::ThreadPool* pool = nullptr,
    ReplicationScratch* scratch = nullptr);

/// The fixed-count driver on a VC pattern.
[[nodiscard]] inline ReplicationResult simulate_overhead(
    const model::System& sys, const core::Pattern& pattern,
    const ReplicationOptions& opt = {}, exec::ThreadPool* pool = nullptr,
    ReplicationScratch* scratch = nullptr) {
  return replicate(ReplicaPlan(sys, pattern, opt), pool, scratch);
}

/// The fixed-count driver on a segmented pattern (core/segmented.hpp);
/// the system type picks the protocol.
[[nodiscard]] inline ReplicationResult simulate_segmented_overhead(
    const core::SegmentedProtocol& sys, const core::SegmentedPattern& pattern,
    const ReplicationOptions& opt = {}, exec::ThreadPool* pool = nullptr) {
  return replicate(ReplicaPlan(sys, pattern, opt), pool);
}

/// The adaptive driver as a resumable round stepper. Each step() runs one
/// grow-and-recheck round: it appends replicas up to the round's target
/// (replica i always draws substream (opt.seed, i)), recomputes the
/// Student-t CI over all of them, and ends the run once the CI meets
/// `adapt.ci_rel_tol` or the count reaches `adapt.max_replicas`
/// (opt.replicas is ignored). The schedule depends only on the counts and
/// the CI, so a caller may pause a run between rounds, or drop it, and a
/// resumed run ends on the bits of one stepped straight through
/// (simulate_overhead_adaptive), which are a fixed-count run's at the
/// final count. `scratch` must outlive the run; it holds the outcomes
/// when given (the run owns them otherwise). A run is movable.
class AdaptiveRun {
 public:
  AdaptiveRun(ReplicaPlan plan, const AdaptiveOptions& adapt,
              ReplicationScratch* scratch = nullptr);
  /// A VC pattern.
  AdaptiveRun(const model::System& sys, const core::Pattern& pattern,
              const ReplicationOptions& opt, const AdaptiveOptions& adapt,
              ReplicationScratch* scratch = nullptr)
      : AdaptiveRun(ReplicaPlan(sys, pattern, opt), adapt, scratch) {}

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

  ReplicaPlan plan_;
  AdaptiveOptions adapt_;
  ReplicationScratch* scratch_;
  ReplicationScratch own_;
  std::size_t target_;
  int rounds_ = 0;
  bool converged_ = false;
  bool done_ = false;
};

/// The adaptive driver on a VC pattern, stepped to its end: a summary
/// with Student-t intervals (honest at small counts), whose estimate is
/// bit-identical to a fixed-count run at the final count, and whose count
/// is a pure function of the inputs. Segmented patterns step an
/// AdaptiveRun over their ReplicaPlan.
[[nodiscard]] inline ReplicationResult simulate_overhead_adaptive(
    const model::System& sys, const core::Pattern& pattern,
    const ReplicationOptions& opt, const AdaptiveOptions& adapt,
    exec::ThreadPool* pool = nullptr, ReplicationScratch* scratch = nullptr) {
  AdaptiveRun run(sys, pattern, opt, adapt, scratch);
  while (!run.done()) run.step(pool);
  return run.result();
}

}  // namespace ayd::sim
