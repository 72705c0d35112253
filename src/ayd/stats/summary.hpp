// Summary statistics and normal-theory confidence intervals for simulation
// outputs.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ayd/stats/running.hpp"

namespace ayd::stats {

/// A two-sided confidence interval for a mean.
struct ConfidenceInterval {
  double lo = 0.0;     ///< lower bound
  double hi = 0.0;     ///< upper bound
  double level = 0.95; ///< confidence level in (0, 1)
  [[nodiscard]] double half_width() const { return 0.5 * (hi - lo); }
  [[nodiscard]] bool contains(double x) const { return lo <= x && x <= hi; }
};

/// Full summary of a sample.
struct Summary {
  std::size_t count = 0;      ///< sample size
  double mean = 0.0;          ///< sample mean
  double stddev = 0.0;        ///< unbiased sample standard deviation
  double stderr_mean = 0.0;   ///< standard error of the mean
  double min = 0.0;           ///< smallest sample
  double max = 0.0;           ///< largest sample
  /// CI for the mean at `ci.level`: normal-theory from summarize(),
  /// Student-t from summarize_student() (stats/ci.hpp).
  ConfidenceInterval ci;
};

/// Standard normal quantile z_p (wraps the RNG-module approximation; it is
/// exposed here because CIs are a statistics concern).
[[nodiscard]] double normal_quantile(double p);

/// Normal-theory CI for a mean from its point estimate and standard error.
[[nodiscard]] ConfidenceInterval mean_ci(double mean, double stderr_mean,
                                         double level = 0.95);

/// Builds a Summary from a running accumulator.
[[nodiscard]] Summary summarize(const RunningStats& stats,
                                double ci_level = 0.95);

/// Least-squares slope of y against x. Used to fit the log-log asymptotic
/// orders reported next to Figures 5 and 6 (e.g. P* ~ λ^{-1/4}).
/// Returns {slope, intercept}. Requires xs.size() == ys.size() >= 2.
struct LinearFit {
  double slope = 0.0;      ///< least-squares slope of y against x
  double intercept = 0.0;  ///< least-squares intercept
  double r_squared = 0.0;  ///< coefficient of determination (1 = exact fit)
};
[[nodiscard]] LinearFit linear_fit(std::span<const double> xs,
                                   std::span<const double> ys);

}  // namespace ayd::stats
