// Extension: segmented patterns — multi-verification and two-level
// checkpointing (the paper's §V "multi-level resilience protocols").
//
// SEGMENTED(T, P, n) splits the pattern's T seconds of work into n equal
// segments, each ending in a verification V_P; the n-th segment's
// verification is followed by the stable checkpoint C_P. A fail-stop
// error (rate λf_P) loses node memory, so it always costs the downtime D
// and a stable recovery R_P and restarts the whole pattern. Two protocols
// share that plan and differ in exactly two facts:
//
//   protocol            inner boundary stores      detected silent error
//   multi-verification  nothing                    R_P chain to the start
//   two-level           level-1 checkpoint L_P     one L_P try, same segment
//
// The type of the system argument picks the protocol, as the simulators'
// constructors do (sim/segmented.hpp): a model::System is
// multi-verification (Benoit, Cavelan, Robert & Sun, IPDPS'16, the
// paper's reference [2]); a TwoLevelSystem is two-level checkpointing
// (the SCR/FTI hierarchy: cheap in-memory checkpoints absorb silent
// rollbacks, the stable one survives fail-stops). With n = 1 (and L = R
// for two-level) both are the VC pattern of Proposition 1 / Theorem 1,
// which the tests pin.
//
// First-order form (docs/theory.md §6.6):
//   H(T, P, n) ≈ H(P)·[ (nV + (n−1)L + C)/T + (λf/2 + λs·k/n)·T + 1 ],
// with L = 0 for multi-verification and k the mean number of segments a
// silent error re-executes: (n+1)/2 when it rolls back to the pattern
// start, 1 when it rolls back one segment. The product of the two terms
// is (n·a + b)(c + d/n), minimised at n* = sqrt(b·d/(a·c)):
//   multi-verification: (a, b, c, d) = (V,   C,   (λf+λs)/2, λs/2),
//   two-level:          (a, b, c, d) = (V+L, C−L, λf/2,      λs).
// The exact expectation is one backward recursion over the segments
// (absorbing Markov chain) built from Proposition 1's stable expm1
// primitives.

#pragma once

#include "ayd/model/cost.hpp"
#include "ayd/model/system.hpp"

namespace ayd::core {

struct SegmentedPattern {
  /// Total useful-computation length T of the pattern (> 0), split into
  /// `segments` equal chunks.
  double period = 0.0;
  /// Processor allocation P (>= 1).
  double procs = 1.0;
  /// Number of work segments (verifications) per stable checkpoint (>= 1).
  int segments = 1;
};

/// Validates a segmented pattern; throws util::InvalidArgument on
/// violation.
void validate(const SegmentedPattern& pattern);

/// A System extended with the level-1 checkpoint cost model: the
/// two-level protocol. The base system's checkpoint/recovery costs play
/// the level-2 role. Level-1 recovery is assumed to cost the same as a
/// level-1 checkpoint (both are memory copies), mirroring the paper's
/// R_P = C_P convention.
struct TwoLevelSystem {
  model::System base;
  /// Level-1 (in-memory) checkpoint cost L_P. The natural default is the
  /// system's verification cost model: the paper already equates V_P with
  /// an in-memory snapshot of the full footprint (Section IV-A).
  model::CostModel level1;

  /// Builds the default configuration: L_P := V_P.
  [[nodiscard]] static TwoLevelSystem with_memory_level1(
      const model::System& sys) {
    return {sys, sys.costs().verification};
  }

  [[nodiscard]] double level1_cost(double p) const {
    return level1.cost(p);
  }
};

/// The protocol a system argument picks. Both system types convert to it
/// implicitly, so every function below reads as taking the system itself;
/// it refers to the system, which must outlive it.
class SegmentedProtocol {
 public:
  // NOLINTBEGIN(google-explicit-constructor): the conversion is the
  // protocol choice.
  /// Multi-verification on `sys`.
  SegmentedProtocol(const model::System& sys) : base_(sys) {}
  /// Two-level checkpointing on `sys`.
  SegmentedProtocol(const TwoLevelSystem& sys)
      : base_(sys.base), level1_(&sys.level1) {}
  // NOLINTEND(google-explicit-constructor)

  [[nodiscard]] const model::System& base() const { return base_; }
  /// The level-1 cost model; null for multi-verification.
  [[nodiscard]] const model::CostModel* level1() const { return level1_; }

 private:
  const model::System& base_;
  const model::CostModel* level1_ = nullptr;
};

/// Exact expected execution time of the pattern under the paper's error
/// model. Returns +inf when the value (or an intermediate success
/// probability) exceeds double range.
[[nodiscard]] double expected_segmented_time(const SegmentedProtocol& sys,
                                             const SegmentedPattern& pattern);

/// Expected execution overhead E / (T·S(P)).
[[nodiscard]] double segmented_overhead(const SegmentedProtocol& sys,
                                        const SegmentedPattern& pattern);

/// First-order overhead H(P)·[(nV+(n−1)L+C)/T + (λf/2 + λs·k/n)·T + 1].
[[nodiscard]] double first_order_segmented_overhead(
    const SegmentedProtocol& sys, const SegmentedPattern& pattern);

/// First-order optimal period for fixed (P, n):
/// T* = sqrt((nV+(n−1)L+C)/(λf/2 + λs·k/n)). +inf on error-free systems.
[[nodiscard]] double optimal_segmented_period(const SegmentedProtocol& sys,
                                              double procs, int segments);

/// First-order optimal plan for a fixed allocation.
struct SegmentedPlan {
  int segments = 1;                  ///< n*, rounded to the better neighbour
  double segments_continuous = 1.0;  ///< unrounded n* = sqrt(b·d/(a·c))
  double period = 0.0;               ///< T*(n*, P)
  double overhead = 0.0;             ///< predicted H(T*, P, n*)
};

/// Applies the closed form n* = sqrt(b·d/(a·c)) and rounds to the better
/// integer neighbour under the first-order overhead (n >= 1). Requires a
/// positive boundary cost a (free boundaries admit unbounded n) and a
/// positive n-independent rate c: λf + λs > 0 for multi-verification,
/// λf > 0 for two-level (a fail-stop-free two-level system pushes n -> ∞;
/// optimal_segmented_pattern caps n instead).
[[nodiscard]] SegmentedPlan optimal_segmented_plan(
    const SegmentedProtocol& sys, double procs);

/// Numerically exact optimum over (T, n) for a fixed allocation.
struct SegmentedOptimum {
  int segments = 1;
  double period = 0.0;
  double overhead = 0.0;
  /// False when the period search did not converge, or when no n has a
  /// finite overhead (then segments = 1 at the search's last period).
  bool converged = false;
};

/// Scans n = 1..kMaxSegments with an inner exact-overhead period search
/// (seeded by the first-order period) and stops once the overhead has
/// risen for four consecutive n.
inline constexpr int kMaxSegments = 256;
[[nodiscard]] SegmentedOptimum optimal_segmented_pattern(
    const SegmentedProtocol& sys, double procs);

}  // namespace ayd::core
