// Discrete-event simulation of the VC protocol (verified checkpointing).
//
// Semantics, exactly as the paper's Section II / Figure 1 prescribe:
//  * The pattern executes T (compute), then V_P (verify), then C_P
//    (checkpoint).
//  * Fail-stop errors arrive with rate λf_P and can strike during
//    compute, verification, checkpointing and recovery. On a fail-stop:
//    downtime D (during which nothing can fail), then a recovery R_P
//    (itself subject to fail-stop errors), then the pattern restarts
//    from scratch.
//  * Silent errors arrive independently with rate λs_P and strike only
//    computation. A silent error is invisible until the verification at
//    the end of the pattern, which triggers a recovery (no downtime) and
//    a restart. A fail-stop error arriving after a silent error in the
//    same attempt masks it (the rollback repairs both).
//
// Inter-arrival times come from the System's model::FailureDistSpec
// (exponential by default — the paper's Poisson process — or Weibull /
// lognormal / trace replay). Non-memoryless laws renew the arrival clock
// at each attempt start and recovery start; for the exponential this is
// indistinguishable from the paper's process and the historical RNG draw
// sequence is preserved bit-for-bit. Both backends share the same
// renewal points, so they stay distributionally equivalent for every
// distribution (the statistical test tier checks this).
//
// Hot-path engineering (both simulators produce results bit-identical to
// the straightforward implementations they replace; the pre-overhaul
// pins and the reference cross-check in tests/sim_bitcompat_test.cpp
// enforce this):
//
//  * DesProtocolSimulator keeps its pending events in a three-slot
//    PendingSet (phase end, silent arrival, fail-stop arrival: each role
//    has at most one pending event), reused across patterns and replicas
//    with zero steady-state allocation, and draws arrivals through a
//    batched unit-variate block — uniforms are pulled from the stream in
//    the historical order, the expensive part of the quantile inversion
//    (log / pow / normal-quantile) runs in bulk over a cache-resident
//    block, and only the cheap rate scaling happens per draw.
//  * FastProtocolSimulator is the segmented interpreter on its
//    one-source, one-segment world (SegmentedFastSimulator,
//    sim/segmented.hpp, which documents its draw sources). Its CDF
//    threshold filter makes an attempt whose uniforms say "no error
//    strikes before the checkpoint is stored" — the overwhelmingly
//    common case at realistic rates — cost two uniforms and two
//    compares, with no transcendental calls at all. Draws near a
//    decision boundary or inside an error window fall back to the exact
//    historical arithmetic on the very same uniform, so results cannot
//    drift. The stream-fed walk calls no vectorized kernel, so its
//    results are the same bits under every SIMD tier.
//
// The segmented DES does not replace DesProtocolSimulator yet: they
// differ in two pinned behaviours. Here a memoryless (exponential)
// pending arrival survives renewal points, and a trace-replay arrival
// exactly at T+V+C strikes.

#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "ayd/core/pattern.hpp"
#include "ayd/model/system.hpp"
#include "ayd/rng/block.hpp"
#include "ayd/rng/stream.hpp"
#include "ayd/sim/pending_set.hpp"
#include "ayd/sim/trace.hpp"
#include "ayd/sim/variate_pool.hpp"

namespace ayd::sim {

/// Upper bound on re-execution attempts for a single pattern. A pattern
/// whose per-attempt success probability is below ~1/kMaxPatternAttempts
/// (i.e. λf·(T+V+C)+λs·T ≳ 16) would take effectively forever to finish;
/// the simulators throw util::SimulationDiverged instead of spinning.
inline constexpr std::uint64_t kMaxPatternAttempts = 10'000'000;

/// Conservative CDF threshold in the 53-bit word space of uniform01
/// draws (the uniform is (w >> 11) * 2^-53): every word w with
/// (w >> 11) >= safe_word_threshold(dist, window) is guaranteed to
/// satisfy dist.sample_value(that uniform) >= window in exact
/// floating-point evaluation, so the fast simulator can classify the
/// draw without performing the quantile inversion. The margin is sized
/// to dominate the worst cdf/quantile inconsistency across the analytic
/// kinds (see the implementation); soundness is scanned at the boundary
/// by tests/sim_bitcompat_test.cpp.
[[nodiscard]] std::uint64_t safe_word_threshold(
    const model::FailureDistribution& dist, double window);

namespace detail {
/// Throws util::SimulationDiverged for a pattern of period T on P
/// processors with n segments that hit kMaxPatternAttempts tries, at
/// total fail-stop rate `fail_rate` and silent rate `silent_rate`: the
/// one divergence message of every simulator.
[[noreturn]] void throw_diverged(double period, double procs, int segments,
                                 double fail_rate, double silent_rate);
}  // namespace detail

/// Counters for one simulated pattern (all re-execution included).
struct PatternStats {
  double wall_time = 0.0;            ///< start-to-checkpoint-stored time
  std::uint64_t attempts = 0;        ///< work attempts executed (>= 1)
  std::uint64_t fail_stop_errors = 0;///< fail-stop arrivals that struck
  std::uint64_t recovery_fail_stops = 0;  ///< ... of which during recovery
  std::uint64_t silent_detections = 0;    ///< silent errors caught by verify
  std::uint64_t masked_silent = 0;   ///< silent errors masked by fail-stop
  /// Fail-stop strikes attributed to the platform-wide shock stream of a
  /// correlated world (sim/segmented.hpp); always 0 for the plain
  /// simulators in this header.
  std::uint64_t shock_errors = 0;

  void merge(const PatternStats& o) {
    wall_time += o.wall_time;
    attempts += o.attempts;
    fail_stop_errors += o.fail_stop_errors;
    recovery_fail_stops += o.recovery_fail_stops;
    silent_detections += o.silent_detections;
    masked_silent += o.masked_silent;
    shock_errors += o.shock_errors;
  }
};

/// Event-queue-driven reference simulator. Faithful and traceable; use
/// FastProtocolSimulator for bulk replication (same distribution, much
/// faster — bench/micro_sim quantifies it).
class DesProtocolSimulator {
 public:
  DesProtocolSimulator(const model::System& sys, const core::Pattern& pattern);

  /// Simulates one pattern to successful completion. If `trace` is given,
  /// appends labelled segments starting at `start_time`.
  ///
  /// The simulator may prefetch variates from `rng` (batched sampling),
  /// so `rng` can advance past the words actually consumed. Passing a
  /// *different* stream to a later call is safe — the simulator
  /// fingerprints the engine state and discards stale prefetch
  /// automatically — but interleaving other draws on the same stream
  /// between calls shifts positions relative to a prefetch-free
  /// implementation (the discarded prefetched words are skipped).
  [[nodiscard]] PatternStats simulate_pattern(rng::RngStream& rng,
                                              Trace* trace = nullptr,
                                              double start_time = 0.0);

  /// Simulates `n` patterns back to back and merges their stats —
  /// equivalent to n simulate_pattern calls (bitwise: wall times are
  /// accumulated per pattern first, exactly like PatternStats::merge),
  /// but with the pattern loop inside the simulator so nothing crosses a
  /// call boundary per pattern. This is the replication driver's loop.
  [[nodiscard]] PatternStats simulate_replica(rng::RngStream& rng,
                                              std::size_t n);

  /// Discards batched variates prefetched from the current stream.
  /// Stream switches are also detected automatically (simulate_pattern
  /// fingerprints the engine state), so this is an explicit fast-path
  /// hint for drivers that know the boundary — the replication driver
  /// calls it at every replica switch.
  void begin_replica() { units_.reset(); }

  /// Pool mode (common random numbers): draw unit variates from the
  /// shared pool cursor instead of sampling the stream. The cursor must
  /// be positioned at the replica's sequence start and outlive the
  /// simulation calls; pass nullptr to return to stream sampling. Only
  /// valid when every active source factors through the unit-variate
  /// API (the pool registry never hands out a pool otherwise). In the
  /// scalar tier, results are bit-identical to stream sampling.
  void set_unit_cursor(UnitVariatePool::Cursor* cursor);

  [[nodiscard]] const core::Pattern& pattern() const { return pattern_; }

 private:
  [[nodiscard]] double draw(const model::FailureDistribution& dist,
                            rng::RngStream& rng);

  core::Pattern pattern_;
  double lf_;  ///< fail-stop rate at P
  double ls_;  ///< silent rate at P
  double t_;   ///< T
  double v_;   ///< V_P
  double c_;   ///< C_P
  double r_;   ///< R_P
  double d_;   ///< downtime D
  std::unique_ptr<const model::FailureDistribution> fail_dist_;
  std::unique_ptr<const model::FailureDistribution> silent_dist_;
  bool renewal_;  ///< redraw pending arrivals at renewal points
  bool batched_;  ///< active sources factor through one unit block
  /// Unit-transform source for the shared block (both error sources are
  /// instantiated from one spec, so their unit transform is identical).
  const model::FailureDistribution* unit_src_ = nullptr;
  rng::VariateBlock units_;  ///< batched unit variates (arena scratch)
  /// Engine state expected on the next simulate_pattern call while
  /// prefetched variates are buffered; a mismatch means the caller
  /// switched streams, and the stale buffer is discarded (256-bit
  /// fingerprint — a cross-stream collision is not a practical concern).
  std::array<std::uint64_t, 4> expected_state_{};
  /// Non-null in pool (CRN) mode: draws come from the shared sequence.
  UnitVariatePool::Cursor* pool_cursor_ = nullptr;
  /// The pending-event roles: the current phase's end, the attempt's
  /// silent arrival, the fail-stop arrival.
  static constexpr std::size_t kPhaseEndSlot = 0;
  static constexpr std::size_t kSilentSlot = 1;
  static constexpr std::size_t kFailStopSlot = 2;
  PendingSet<3> pending_;
};

class SegmentedFastSimulator;

/// Closed-form per-attempt sampler of the VC pattern: the segmented
/// interpreter on its one-source, one-segment world. Distributionally
/// identical to DesProtocolSimulator (tests compare the two
/// statistically).
using FastProtocolSimulator = SegmentedFastSimulator;

}  // namespace ayd::sim

// Last: the segmented interpreter builds on the declarations above.
#include "ayd/sim/segmented.hpp"  // IWYU pragma: export
