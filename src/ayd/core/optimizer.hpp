// Numerical optimisation of the exact expected overhead.
//
// The paper's "Optimal" curves come from numerically minimising the exact
// H(T, P) = E(T, P) / (T·S(P)) (its Section IV compares them against the
// first-order formulas). This module implements that reference solution:
//
//  * optimal_period     — 1-D minimisation over T for fixed P, performed
//    on log T with a bracketed Brent search seeded by the Theorem-1
//    period. Works on log H so no intermediate can overflow.
//  * optimal_allocation — nested minimisation over P (outer, on log P)
//    and T (inner). Monotone cases (scenario 6, perfectly parallel jobs,
//    error-free platforms) converge to the domain boundary and are
//    reported as such rather than inventing a fake optimum.
//
// P is treated as continuous, matching the analysis; integer refinement
// (evaluating floor/ceil and keeping the better) is applied on request.
//
// The search domains are fixed: T in [kMinPeriod, kMaxPeriod] and P in
// [kMinProcs, max_procs]. Brent stops at a relative tolerance of 1e-10 on log T
// (1e-9 on log P) or after 200 iterations.

#pragma once

#include "ayd/core/pattern.hpp"
#include "ayd/model/system.hpp"

namespace ayd::core {

/// Lower edge of every period search domain, in seconds.
inline constexpr double kMinPeriod = 1e-3;
/// Upper edge of every period search domain, in seconds.
inline constexpr double kMaxPeriod = 1e13;
/// Lower edge of every processor search domain.
inline constexpr double kMinProcs = 1.0;

struct PeriodOptimum {
  double period = 0.0;        ///< T*, the optimal checkpointing period
  double overhead = 0.0;      ///< H(T*, P); may be +inf if log form needed
  double log_overhead = 0.0;  ///< log H(T*, P), always finite
  bool converged = false;     ///< tolerance met before the iteration cap
  /// True when the minimiser stopped at a search-domain edge (the overhead
  /// is monotone in T over the domain — e.g. error-free platforms).
  bool at_boundary = false;
  int evaluations = 0;        ///< objective evaluations consumed
};

/// Minimises H(T, P) over T for the given processor count.
[[nodiscard]] PeriodOptimum optimal_period(const model::System& sys,
                                           double procs);

struct AllocationSearchOptions {
  /// Upper edge of the allocation search (the lower edge is kMinProcs);
  /// raise for α = 0 sweeps (the paper probes 10^13).
  double max_procs = 1e7;
  /// Evaluate floor(P*) and ceil(P*) and keep the better one.
  bool refine_integer = true;
};

struct AllocationOptimum {
  double procs = 0.0;    ///< optimal allocation (integer if refined)
  double period = 0.0;   ///< optimal period at that allocation
  double overhead = 0.0;      ///< H(T*, P*); may be +inf if log form needed
  double log_overhead = 0.0;  ///< log H(T*, P*), always finite
  /// Continuous optimiser output before integer refinement.
  double procs_continuous = 0.0;
  bool converged = false;  ///< tolerance met before the iteration cap
  /// True when the optimum sits on a search-domain edge: either P ran
  /// into kMinProcs or max_procs (monotone overhead in P over the domain:
  /// scenario 6, α = 0 with constant costs, error-free...) or the inner
  /// period search at the reported P stopped at kMinPeriod/kMaxPeriod.
  bool at_boundary = false;
  int outer_evaluations = 0;  ///< inner period searches performed
};

/// Jointly minimises H(T, P) over both parameters.
[[nodiscard]] AllocationOptimum optimal_allocation(
    const model::System& sys, const AllocationSearchOptions& opt = {});

}  // namespace ayd::core
