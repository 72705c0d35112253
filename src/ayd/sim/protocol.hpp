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
//  * DesProtocolSimulator owns an arena EventQueue reused across
//    patterns and replicas (zero steady-state allocation) and draws
//    arrivals through a batched unit-variate block — uniforms are pulled
//    from the stream in the historical order, the expensive part of the
//    quantile inversion (log / pow / normal-quantile) runs in bulk over
//    a cache-resident block, and only the cheap rate scaling happens per
//    draw.
//  * FastProtocolSimulator filters each draw through a precomputed CDF
//    threshold: an attempt whose uniforms say "no error strikes before
//    the checkpoint is stored" — the overwhelmingly common case at
//    realistic rates — costs two uniforms and two compares, with no
//    transcendental calls at all. Draws near a decision boundary or
//    inside an error window fall back to the exact historical
//    arithmetic on the very same uniform, so results cannot drift.

#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "ayd/core/pattern.hpp"
#include "ayd/model/system.hpp"
#include "ayd/rng/block.hpp"
#include "ayd/rng/stream.hpp"
#include "ayd/sim/event_queue.hpp"
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
  EventQueue queue_;         ///< arena event queue, reused across patterns
};

/// Closed-form per-segment sampler: draws each attempt's fate directly
/// instead of walking an event queue (one fresh arrival per attempt and
/// per recovery try). For the exponential this is the memorylessness
/// shortcut; non-memoryless distributions fall back to quantile-inversion
/// sampling with the same renewal points. Distributionally identical to
/// DesProtocolSimulator (tests compare the two statistically).
class FastProtocolSimulator {
 public:
  FastProtocolSimulator(const model::System& sys, const core::Pattern& pattern);

  [[nodiscard]] PatternStats simulate_pattern(rng::RngStream& rng);

  /// Simulates `n` patterns back to back and merges their stats —
  /// equivalent to n simulate_pattern calls, with the loop inside the
  /// simulator (see DesProtocolSimulator::simulate_replica).
  [[nodiscard]] PatternStats simulate_replica(rng::RngStream& rng,
                                              std::size_t n);

  /// Discards words prefetched by the SIMD block pipeline (scalar-tier
  /// runs never prefetch, so this is a no-op there). Stream switches are
  /// also detected automatically via the engine-state fingerprint, like
  /// the DES simulator; the replication driver calls this at every
  /// replica switch.
  void begin_replica() { block_pos_ = block_len_ = 0; }

  /// Pool mode (common random numbers): see
  /// DesProtocolSimulator::set_unit_cursor. In the scalar tier, pool-fed
  /// results are bit-identical to stream sampling.
  void set_unit_cursor(UnitVariatePool::Cursor* cursor);

  [[nodiscard]] const core::Pattern& pattern() const { return pattern_; }

 private:
  /// The historical draw-everything loop; used when a source cannot be
  /// threshold-filtered (trace replay's variable word consumption).
  [[nodiscard]] PatternStats simulate_pattern_general(rng::RngStream& rng);

  /// CRN replica loop: every draw comes from the shared pool sequence.
  [[nodiscard]] PatternStats simulate_replica_pool(std::size_t n);

  /// CRN replica loop in unit space (SIMD golden tier only): the window
  /// bounds are rescaled into the pool's unit-variate space once per
  /// replica call, so the hot path compares raw pool reads and only
  /// branches that consume an arrival time compute the scaling multiply.
  [[nodiscard]] PatternStats simulate_replica_pool_units(std::size_t n);

  /// SIMD-tier replica loop: words are pulled from the engine in blocks,
  /// the below-threshold lanes are transformed in bulk with the
  /// vectorized kernels, and the attempt loop consumes (mantissa, unit
  /// variate) pairs with no per-draw transcendental calls.
  [[nodiscard]] PatternStats simulate_replica_block(rng::RngStream& rng,
                                                    std::size_t n);

  core::Pattern pattern_;
  double lf_;
  double ls_;
  double t_;
  double v_;
  double c_;
  double r_;
  double d_;
  double tv_;   ///< T + V (precomputed with the historical expression)
  double tvc_;  ///< T + V + C
  std::unique_ptr<const model::FailureDistribution> fail_dist_;
  std::unique_ptr<const model::FailureDistribution> silent_dist_;
  bool lazy_;  ///< threshold filter usable for every active source
  /// Safe thresholds in 53-bit word space: a draw whose word w satisfies
  /// (w >> 11) >= mthr_* is guaranteed to land beyond the corresponding
  /// window in exact arithmetic, so its arrival time never needs to be
  /// computed. Comparing the integer mantissa is exact (the uniform is
  /// (w >> 11) * 2^-53, a lossless scaling) and keeps the hot path free
  /// of floating-point conversions.
  std::uint64_t mthr_fail_ = 0;    ///< fail-stop before T+V+C possible
  std::uint64_t mthr_silent_ = 0;  ///< silent arrival before T possible
  std::uint64_t mthr_rec_ = 0;     ///< fail-stop before R possible

  /// How from_unit scales a unit variate, devirtualized for the pool and
  /// block hot loops (the scalar expressions are kept bit-for-bit:
  /// Weibull multiplies by its scale, the exponential divides by its
  /// rate, the lognormal stays a virtual call).
  enum class UnitScaling : int { kLinear, kDivide, kVirtual };

  // --- SIMD block pipeline (non-memoryless sources, SIMD tier only) ----
  //
  // The exponential fast path never enables this (its draws are already
  // transcendental-free), so exponential results stay byte-identical to
  // the scalar tier under every tier.
  bool block_mode_ = false;     ///< pipeline enabled at construction
  /// Unit-transform source for the bulk kernels (fail and silent sources
  /// share one spec, hence one unit transform).
  const model::FailureDistribution* unit_src_ = nullptr;
  UnitScaling fail_scaling_ = UnitScaling::kVirtual;
  double fail_factor_ = 0.0;    ///< scale (kLinear) or rate (kDivide)
  UnitScaling silent_scaling_ = UnitScaling::kVirtual;
  double silent_factor_ = 0.0;
  /// Pre-shifted 53-bit mantissas and the bulk-transformed unit variates
  /// (above-threshold draws never read their variate).
  std::array<std::uint64_t, rng::kVariateBlockSize> block_m_{};
  std::array<double, rng::kVariateBlockSize> block_z_{};
  std::size_t block_pos_ = 0;
  std::size_t block_len_ = 0;
  /// Stale-prefetch fingerprint, exactly like the DES simulator's.
  std::array<std::uint64_t, 4> expected_state_{};
  /// Non-null in pool (CRN) mode: draws come from the shared sequence.
  UnitVariatePool::Cursor* pool_cursor_ = nullptr;
};

}  // namespace ayd::sim
