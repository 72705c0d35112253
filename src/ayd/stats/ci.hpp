// Small-sample confidence intervals and streaming batch-means variance.
//
// The adaptive replication driver (sim/runner) and the simulation-driven
// optimizer (core/sim_optimizer) stop when the confidence interval of a
// Monte-Carlo mean is tight enough, so the interval itself must be honest
// at small replica counts: this module provides Student-t intervals
// (normal-theory z intervals undercover badly below ~30 samples) and a
// streaming batch-means estimator for correlated series. Everything is
// deterministic and allocation-free in steady state, matching the
// simulator hot-path discipline.

#pragma once

#include <cstddef>

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

/// Streaming batch-means variance estimator for (possibly autocorrelated)
/// series: consecutive samples are grouped into fixed-size batches and the
/// variance of the *batch means* estimates Var(mean) without storing the
/// series. With iid input it agrees with the plain sample variance in
/// expectation; with positively correlated input (e.g. per-pattern wall
/// times inside one replica) it does not underestimate the error the way
/// the naive estimator does, provided batches span several correlation
/// lengths.
class BatchMeans {
 public:
  /// `batch_size` consecutive samples form one batch (>= 1).
  explicit BatchMeans(std::size_t batch_size);

  /// Adds one sample; completes a batch every `batch_size` calls.
  void add(double x);

  /// Total samples seen (including the unfinished tail batch).
  [[nodiscard]] std::size_t count() const { return total_.count(); }
  /// Completed batches (the tail batch is excluded until full).
  [[nodiscard]] std::size_t batches() const { return batch_means_.count(); }
  [[nodiscard]] std::size_t batch_size() const { return batch_size_; }

  /// Grand mean over *all* samples seen.
  [[nodiscard]] double mean() const { return total_.mean(); }

  /// Estimated Var(grand mean) = Var(batch means) / #batches; 0 until two
  /// batches complete.
  [[nodiscard]] double variance_of_mean() const;
  /// sqrt(variance_of_mean()).
  [[nodiscard]] double stderr_mean() const;

  /// Student-t CI for the mean with (#batches - 1) degrees of freedom,
  /// centred on the grand mean. Degenerate until two batches complete.
  [[nodiscard]] ConfidenceInterval ci(double level = 0.95) const;

 private:
  std::size_t batch_size_;
  std::size_t in_batch_ = 0;   ///< samples accumulated in the open batch
  double batch_sum_ = 0.0;     ///< running sum of the open batch
  RunningStats total_;         ///< all samples (grand mean, min/max)
  RunningStats batch_means_;   ///< one entry per completed batch
};

}  // namespace ayd::stats
