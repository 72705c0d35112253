// Simulation of the VC protocol (verified checkpointing).
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
// indistinguishable from the paper's process. Both backends share the
// same renewal points, so they stay distributionally equivalent for every
// distribution (the statistical test tier checks this).
//
// Both simulators of this header are the segmented interpreters
// (sim/segmented.hpp) on their one-source, one-segment world, the plain
// shape: FastProtocolSimulator is SegmentedFastSimulator, whose CDF
// threshold filter decides most attempts from two uniforms and two
// integer compares, and DesProtocolSimulator is SegmentedDesSimulator,
// the event-driven reference. On the plain shape each keeps a draw
// sequence tests/sim_bitcompat_test.cpp pins bit-for-bit; segmented.hpp
// documents the draw sources, and the DES's plain-shape draw, renewal
// and tie rules.
//
// This header keeps what every simulator shares: the attempt bound, the
// CDF word threshold, the divergence message and PatternStats.

#pragma once

#include <cstdint>

#include "ayd/model/failure_dist.hpp"

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
  /// correlated world (sim/segmented.hpp); always 0 without one.
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

class SegmentedFastSimulator;
class SegmentedDesSimulator;

/// Closed-form per-attempt sampler of the VC pattern: the segmented
/// interpreter on its one-source, one-segment world.
using FastProtocolSimulator = SegmentedFastSimulator;
/// Event-driven reference simulator of the VC pattern: the segmented DES
/// on the same world (faithful and traceable; use FastProtocolSimulator
/// for bulk replication).
using DesProtocolSimulator = SegmentedDesSimulator;

}  // namespace ayd::sim

// Last: the segmented interpreter builds on the declarations above.
#include "ayd/sim/segmented.hpp"  // IWYU pragma: export
