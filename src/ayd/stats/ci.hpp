// Small-sample confidence intervals.
//
// The adaptive replication driver (sim/runner) and the simulation-driven
// optimizer (core/sim_optimizer) stop when the confidence interval of a
// Monte-Carlo mean is tight enough, so the interval itself must be honest
// at small replica counts: this module provides Student-t intervals
// (normal-theory z intervals undercover badly below ~30 samples).
// Everything is deterministic and allocation-free in steady state, matching
// the simulator hot-path discipline.

#pragma once

#include "ayd/stats/running.hpp"
#include "ayd/stats/summary.hpp"

namespace ayd::stats {

/// Quantile of the Student-t distribution with `df` degrees of freedom:
/// the value t with P(T_df <= t) = p. Computed by inverting the exact CDF
/// (regularised incomplete beta) with a Brent root search seeded by the
/// normal quantile; accurate to ~1e-10 over df >= 1, p in (0, 1).
/// Converges to normal_quantile(p) as df grows. Memoised per thread by
/// exact (p, df); a cached answer is the same double a fresh inversion
/// returns.
[[nodiscard]] double student_t_quantile(double p, double df);

/// Student-t CI for the mean of the accumulated sample (df = n - 1).
/// Degenerate (lo == hi == mean) for n < 2.
[[nodiscard]] ConfidenceInterval mean_ci_student(const RunningStats& stats,
                                                 double level = 0.95);

/// Builds a Summary whose interval is the Student-t CI (the plain
/// summarize() uses the normal-theory interval).
[[nodiscard]] Summary summarize_student(const RunningStats& stats,
                                        double ci_level = 0.95);

/// Relative half-width |hi - lo| / (2 |mean|) of a CI — the quantity the
/// adaptive replication loop drives below `ci_rel_tol`. Returns +inf when
/// the mean is 0 (no relative scale) so callers keep sampling up to their
/// replication cap instead of dividing by zero.
[[nodiscard]] double relative_half_width(const ConfidenceInterval& ci,
                                         double mean);

}  // namespace ayd::stats
